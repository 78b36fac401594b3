#include "model/load_model.h"

namespace iaas {

void compute_loads(const Instance& instance, const Placement& placement,
                   Matrix<double>& loads) {
  const std::size_t m = instance.m();
  const std::size_t h = instance.h();
  if (loads.rows() != m || loads.cols() != h) {
    loads = Matrix<double>(m, h);
  } else {
    loads.fill(0.0);
  }
  for (std::size_t k = 0; k < instance.n(); ++k) {
    if (!placement.is_assigned(k)) {
      continue;
    }
    const auto j = static_cast<std::size_t>(placement.server_of(k));
    IAAS_DEBUG_EXPECT(j < m, "placement references unknown server");
    const VmRequest& vm = instance.requests.vms[k];
    for (std::size_t l = 0; l < h; ++l) {
      loads(j, l) += vm.demand[l];
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    const Server& server = instance.infra.server(j);
    for (std::size_t l = 0; l < h; ++l) {
      loads(j, l) /= server.capacity[l];
    }
  }
}

void compute_qos(const Instance& instance, const Matrix<double>& loads,
                 Matrix<double>& qos) {
  const std::size_t m = instance.m();
  const std::size_t h = instance.h();
  IAAS_EXPECT(loads.rows() == m && loads.cols() == h,
              "load matrix shape mismatch");
  if (qos.rows() != m || qos.cols() != h) {
    qos = Matrix<double>(m, h);
  }
  for (std::size_t j = 0; j < m; ++j) {
    const Server& server = instance.infra.server(j);
    for (std::size_t l = 0; l < h; ++l) {
      qos(j, l) = qos_at_load(loads(j, l), server.max_load[l],
                              server.max_qos[l]);
    }
  }
}

}  // namespace iaas
