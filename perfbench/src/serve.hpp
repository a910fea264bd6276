#pragma once
/// \file serve.hpp
/// \brief The in-process sweep service the serve-burst workload drives:
/// a SweepScheduler behind an HttpServer with the daemon's four routes,
/// a one-request-per-connection loopback client, and a closed-loop
/// client that keeps a fixed number of jobs outstanding.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/http.hpp"
#include "service/scheduler.hpp"

namespace perfbench {

/// Grid size of the serve-burst jobs' matrices (n x n grid).
inline constexpr std::size_t kServeGrid = 24;
/// Right-hand-side variants per matrix in the serve-burst catalog.
inline constexpr std::size_t kRhsVariants = 3;
/// Jobs the closed-loop client keeps in flight.
inline constexpr std::size_t kOutstanding = 2;

struct HttpReply {
  bool ok = false; ///< connected, sent, and parsed a status line
  int status = 0;
  std::string body;
};

/// One request to 127.0.0.1:\p port (Connection: close).
HttpReply http_call(std::uint16_t port, const std::string& method,
                    const std::string& target, const std::string& body = "");

/// Scheduler + HTTP endpoint with the sdc_serve routes.  Construction
/// returns once GET /stats answers 200 (the server accepts connections).
class Service {
public:
  Service(const std::string& root, std::size_t workers);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return server_->port(); }
  [[nodiscard]] sdcgmres::service::SweepScheduler& scheduler() noexcept {
    return *scheduler_;
  }

private:
  std::unique_ptr<sdcgmres::service::SweepScheduler> scheduler_;
  std::unique_ptr<sdcgmres::service::HttpServer> server_;
};

/// One job of the burst: the spec body and the index of its expected
/// result document.
struct JobSpec {
  std::string tenant;
  std::size_t spec_index = 0;
  bool solve = false; ///< a single-solve job (else a small sweep)
};

/// The distinct job specs of a burst and their expected result bytes,
/// computed in-process (run_scenario -> write_scenario_json) before any
/// timing starts.
struct JobCatalog {
  std::vector<std::string> specs;
  std::vector<std::string> expected; ///< result document per spec
  std::vector<std::size_t> sites;    ///< sweep points per spec (0 = solve)
  std::vector<double> inprocess_s;   ///< warm in-process run time per spec
  // Work counts summed over the distinct specs (each counted once).
  std::size_t outer_iters = 0;
  std::size_t inner_iters = 0;
  std::size_t global_syncs = 0;
  double operator_bytes = 0.0;
  double streams = 0.0;
  double columns = 0.0;
};

/// Build the catalog: 3 matrices x kRhsVariants right-hand sides x
/// {sweep, solve} on kServeGrid grids; right-hand-side seeds are drawn
/// from \p seed.
JobCatalog make_catalog(std::uint64_t seed);

/// Seeded job order: tenant and spec drawn per job, every fifth job a
/// single solve.
std::vector<JobSpec> make_job_order(const JobCatalog& catalog,
                                    std::uint64_t seed, std::size_t count);

struct LoopResult {
  double wall_s = 0.0;
  std::size_t attempted = 0; ///< jobs submitted
  std::size_t completed = 0; ///< jobs whose result matched
  std::size_t failed = 0;    ///< failed/, HTTP error, or byte mismatch
  std::size_t sites = 0;     ///< sweep points of the completed jobs
  std::vector<double> latency_s;       ///< POST -> result, every job
  std::vector<double> solve_latency_s; ///< the single-solve jobs only
  // Traced loops only (status polls observe the state transitions):
  std::vector<double> queue_wait_s; ///< POST returned -> first seen running
  std::vector<double> run_s;        ///< first seen running -> done
};

/// Closed loop: keep kOutstanding jobs in flight, submitting the next
/// from \p order as one completes, until \p seconds have passed (or
/// \p max_jobs were submitted, when nonzero), then drain.  With a tracer,
/// every HTTP call is a span under a service.job span, and the client
/// polls GET /jobs/<id> to time the queue and run phases.
LoopResult closed_loop(Service& service, const JobCatalog& catalog,
                       const std::vector<JobSpec>& order, double seconds,
                       std::size_t max_jobs, Tracer* tracer);

/// Median GET /stats round trip over \p calls calls, seconds.
double stats_rtt(Service& service, std::size_t calls, Tracer* tracer);

} // namespace perfbench
