/// \file serve.cpp
/// \brief In-process service, loopback HTTP client and closed-loop client.

#include "serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "experiment/report.hpp"
#include "experiment/scenario.hpp"
#include "oracle.hpp"

namespace perfbench {

namespace svc = sdcgmres::service;
namespace ex = sdcgmres::experiment;

HttpReply http_call(std::uint16_t port, const std::string& method,
                    const std::string& target, const std::string& body) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: localhost";
  if (!body.empty() || method == "POST") {
    request += "\r\nContent-Length: " + std::to_string(body.size());
  }
  request += "\r\n\r\n" + body;
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t sp = response.find(' ');
  const std::size_t head_end = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.1 ", 0) != 0 || sp == std::string::npos ||
      head_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(response.c_str() + sp + 1);
  reply.body = response.substr(head_end + 4);
  reply.ok = reply.status > 0;
  return reply;
}

namespace {

svc::HttpResponse route(svc::SweepScheduler& scheduler,
                        const svc::HttpRequest& request) {
  svc::HttpResponse response;
  if (request.method == "POST" && request.target == "/jobs") {
    const std::string id = scheduler.submit(request.body);
    response.status = 201;
    response.body = "{\"id\": \"" + id + "\"}\n";
    return response;
  }
  if (request.method == "GET" && request.target == "/stats") {
    response.body = svc::stats_json(scheduler.stats());
    return response;
  }
  if (request.method == "GET" && request.target.rfind("/jobs/", 0) == 0) {
    std::string id = request.target.substr(6);
    const bool want_result =
        id.size() > 7 && id.rfind("/result") == id.size() - 7;
    if (want_result) id.resize(id.size() - 7);
    const svc::JobStatus status = scheduler.status(id);
    if (status.state == svc::JobStatus::State::Unknown) {
      response.status = 404;
      response.body = "{\"error\": \"unknown job\"}\n";
      return response;
    }
    if (!want_result) {
      response.body = svc::status_json(status);
      return response;
    }
    if (status.state == svc::JobStatus::State::Failed ||
        !scheduler.read_result(id, &response.body)) {
      response.status = 409;
      response.body = svc::status_json(status);
    }
    return response;
  }
  response.status = 404;
  response.body = "{\"error\": \"no such route\"}\n";
  return response;
}

std::string state_of(const std::string& status_doc) {
  const std::string key = "\"state\": \"";
  const std::size_t at = status_doc.find(key);
  if (at == std::string::npos) return {};
  const std::size_t from = at + key.size();
  return status_doc.substr(from, status_doc.find('"', from) - from);
}

} // namespace

Service::Service(const std::string& root, std::size_t workers) {
  svc::SchedulerOptions options;
  options.root = root;
  options.max_concurrent_jobs = workers;
  scheduler_ = std::make_unique<svc::SweepScheduler>(options);
  scheduler_->start();
  server_ = std::make_unique<svc::HttpServer>(
      0, [s = scheduler_.get()](const svc::HttpRequest& r) {
        return route(*s, r);
      });
  server_->start();
  for (int attempt = 0; attempt < 1000; ++attempt) {
    if (http_call(server_->port(), "GET", "/stats").status == 200) return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  throw std::runtime_error("service: /stats never answered");
}

Service::~Service() {
  server_->stop();
  scheduler_->stop();
}

JobCatalog make_catalog(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5e4e5eULL);
  const char* matrices[] = {"poisson", "convdiff", "aniso"};
  JobCatalog c;
  for (const char* m : matrices) {
    for (std::size_t v = 0; v < kRhsVariants; ++v) {
      const std::string problem = std::string("matrix=") + m +
                                  " n=" + std::to_string(kServeGrid) +
                                  " rhs=random seed=" +
                                  std::to_string(rng() % 1000000);
      c.specs.push_back(problem +
                        " inner=8 sweep=1 fault=class1 site_limit=8");
      c.specs.push_back(problem + " inner=8");
    }
  }
  for (const std::string& spec : c.specs) {
    const ex::ScenarioSpec parsed = ex::ScenarioSpec::parse(spec);
    (void)ex::run_scenario(parsed); // warm: first touch of the allocator
    const double t0 = now_s();
    const ex::ScenarioResult r = ex::run_scenario(parsed);
    c.inprocess_s.push_back(now_s() - t0);
    std::ostringstream doc;
    ex::write_scenario_json(doc, r);
    c.expected.push_back(doc.str());
    c.sites.push_back(r.is_sweep ? r.sweep.points.size() : 0);
    if (r.is_sweep) {
      c.outer_iters += r.sweep.baseline_outer;
      c.inner_iters += r.sweep.baseline_total_inner;
      c.global_syncs += r.sweep.total_global_syncs();
      c.operator_bytes += static_cast<double>(r.sweep.operator_stats.bytes());
      c.streams += static_cast<double>(r.sweep.operator_stats.streams());
      c.columns += static_cast<double>(r.sweep.operator_stats.columns());
    } else {
      c.outer_iters += r.report.iterations;
      c.inner_iters += r.report.total_inner_iterations;
      c.global_syncs += r.report.global_syncs;
    }
  }
  return c;
}

std::vector<JobSpec> make_job_order(const JobCatalog& catalog,
                                    std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng(seed ^ 0x0bde7ULL);
  const char* tenants[] = {"alice", "bob", "carol"};
  std::vector<JobSpec> order;
  order.reserve(count);
  const std::size_t problems = catalog.specs.size() / 2;
  for (std::size_t i = 0; i < count; ++i) {
    JobSpec j;
    j.tenant = tenants[rng() % 3];
    j.solve = i % 5 == 4;
    j.spec_index = 2 * (rng() % problems) + (j.solve ? 1 : 0);
    order.push_back(j);
  }
  return order;
}

namespace {

struct Pending {
  std::size_t order_index = 0;
  std::string id;
  double t_post = 0.0;   ///< before POST
  double t_posted = 0.0; ///< POST answered
  double t_running = -1.0;
  int span = -1;
};

} // namespace

LoopResult closed_loop(Service& service, const JobCatalog& catalog,
                       const std::vector<JobSpec>& order, double seconds,
                       std::size_t max_jobs, Tracer* tracer) {
  LoopResult out;
  const std::uint16_t port = service.port();
  std::vector<Pending> live;
  std::size_t next = 0;
  const double t_start = now_s();

  const auto traced_call = [&](int parent, const char* name,
                               const std::string& method,
                               const std::string& target,
                               const std::string& body = std::string()) {
    const double t0 = now_s();
    HttpReply r = http_call(port, method, target, body);
    if (tracer) tracer->add(name, parent, t0, now_s());
    return r;
  };
  const auto finish = [&](const Pending& p, bool ok) {
    const double t = now_s();
    if (tracer) tracer->set_end(p.span, t);
    const JobSpec& job = order[p.order_index % order.size()];
    if (!ok) {
      ++out.failed;
      return;
    }
    ++out.completed;
    out.sites += catalog.sites[job.spec_index];
    out.latency_s.push_back(t - p.t_post);
    if (job.solve) out.solve_latency_s.push_back(t - p.t_post);
  };
  const auto fetch = [&](const Pending& p) {
    const JobSpec& job = order[p.order_index % order.size()];
    const HttpReply r = traced_call(p.span, "service.fetch", "GET",
                                    "/jobs/" + p.id + "/result");
    return r.ok && r.status == 200 && document_ok(catalog.expected[job.spec_index], r.body);
  };
  // True when the job is finished (completed or failed).
  const auto poll = [&](Pending& p) {
    if (tracer == nullptr) {
      const HttpReply r = http_call(port, "GET", "/jobs/" + p.id + "/result");
      if (r.ok && r.status == 409 && state_of(r.body) != "failed") return false;
      const JobSpec& job = order[p.order_index % order.size()];
      finish(p, r.ok && r.status == 200 &&
                    document_ok(catalog.expected[job.spec_index], r.body));
      return true;
    }
    const HttpReply r =
        traced_call(p.span, "service.poll", "GET", "/jobs/" + p.id);
    const std::string state = r.ok && r.status == 200 ? state_of(r.body) : "";
    if (state == "queued") return false;
    if (state == "running") {
      if (p.t_running < 0.0) p.t_running = now_s();
      return false;
    }
    if (state == "done") {
      const double t_done = now_s();
      if (p.t_running >= 0.0) {
        out.queue_wait_s.push_back(p.t_running - p.t_posted);
        out.run_s.push_back(t_done - p.t_running);
      }
      finish(p, fetch(p));
      return true;
    }
    finish(p, false);
    return true;
  };

  for (;;) {
    while (live.size() < kOutstanding &&
           (max_jobs > 0 ? next < max_jobs : now_s() - t_start < seconds)) {
      Pending p;
      p.order_index = next++;
      const JobSpec& job = order[p.order_index % order.size()];
      ++out.attempted;
      p.t_post = now_s();
      if (tracer) p.span = tracer->add("service.job", -1, p.t_post, p.t_post);
      const HttpReply r =
          traced_call(p.span, "service.submit", "POST", "/jobs",
                      "tenant=" + job.tenant + "\n" +
                          catalog.specs[job.spec_index] + "\n");
      p.t_posted = now_s();
      const std::string key = "\"id\": \"";
      const std::size_t at = r.body.find(key);
      if (!r.ok || r.status != 201 || at == std::string::npos) {
        finish(p, false);
        continue;
      }
      const std::size_t from = at + key.size();
      p.id = r.body.substr(from, r.body.find('"', from) - from);
      live.push_back(std::move(p));
    }
    if (live.empty()) break;
    bool progressed = false;
    for (auto it = live.begin(); it != live.end();) {
      if (poll(*it)) {
        it = live.erase(it);
        progressed = true;
      } else {
        ++it;
      }
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.wall_s = now_s() - t_start;
  return out;
}

double stats_rtt(Service& service, std::size_t calls, Tracer* tracer) {
  std::vector<double> t;
  for (std::size_t i = 0; i < calls; ++i) {
    const double t0 = now_s();
    const HttpReply r = http_call(service.port(), "GET", "/stats");
    const double t1 = now_s();
    if (tracer) tracer->add("service.stats", -1, t0, t1);
    if (r.ok && r.status == 200) t.push_back(t1 - t0);
  }
  return median(std::move(t));
}

} // namespace perfbench
