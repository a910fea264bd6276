#pragma once
/// \file probes.hpp
/// \brief Per-layer probes of the traced run: each times one public
/// call of one module, at the workload's shape where the layer has one
/// (the workload's matrix, operator and inner-plane scalar) and at a
/// fixed shape otherwise (the Fig-3 sweep shape for sdc/solver/
/// experiment, the serve-burst job mix for service).  Every probe is a
/// root span named after its layer.  Byte counts are computed from array
/// sizes ("computed bytes"), never measured.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common.hpp"
#include "krylov/mixed_plane.hpp"
#include "krylov/operator.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

struct ProbeContext {
  const sdcgmres::sparse::CsrMatrix* A = nullptr;   ///< workload matrix
  const sdcgmres::krylov::LinearOperator* op = nullptr; ///< its backend
  const sdcgmres::krylov::MixedOperatorT<float>* fop = nullptr; ///< float
                                  ///< inner-plane operator, when the
                                  ///< workload's inner solves run in float
  std::size_t s_step = 1;         ///< s of the workload's inner solves
  std::uint64_t seed = 0;
  bool smoke = false;             ///< tiny sizes (self-check mode)
  bool service_probe = true;      ///< false when the workload itself is
                                  ///< the service loop
  std::string work_dir;           ///< scratch files (journal, spool)
};

/// Facts the probes measure that the report states beside the metrics.
struct ProbeFacts {
  double triad_array_bytes = 0.0;
  double l3_bytes = 0.0;
  std::size_t triad_threads = 0;
};

/// Run every probe, recording spans into \p tracer and metrics into
/// \p layer.  Returns false when a probe's own output check failed.
bool run_layer_probes(const ProbeContext& ctx, Tracer& tracer, Metrics& layer,
                      ProbeFacts& facts);

/// L2/L3 data-cache sizes from sysfs (bytes; 0 when unreadable).
std::size_t cache_bytes(int level);

/// Fill \p layer with the service.* metrics of a traced closed loop.
struct LoopResult;
class Service;
void service_metrics(const LoopResult& loop, Service& service,
                     Tracer& tracer, Metrics& layer);

inline void put(Metrics& m, const std::string& name, double value,
                const std::string& unit) {
  m[name] = Metric{value, unit};
}

} // namespace perfbench
