#include "krylov/ft_gmres.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "krylov/ft_gmres_batch.hpp"
#include "krylov/mixed.hpp"
#include "la/blas1.hpp"

namespace sdcgmres::krylov {

template <typename S>
GmresOptions InnerGmresT<S>::options_for(std::size_t outer_index) const {
  GmresOptions opts = opts_;
  if (robust_first_solve_ && outer_index == 0) {
    // Paper Section VII-E-1: spend extra effort where faults hurt most.
    // CGS2's silent second pass restores the correct total projection
    // coefficient after a single multiplicative fault in the first pass.
    opts.ortho = Orthogonalization::CGS2;
  }
  return opts;
}

template <typename S>
GmresEngineT<S> InnerGmresT<S>::start_engine(ArnoldiHook* hook) {
  std::fill(cur_x_.begin(), cur_x_.end(), S(0));
  return GmresEngineT<S>(a_->rows(), a_->cols(), cur_q_, cur_x_,
                         options_for(cur_outer_), hook, cur_outer_,
                         workspace(), /*residual_history=*/nullptr);
}

template <typename S>
GmresEngineT<S> InnerGmresT<S>::make_engine(std::span<const double> q,
                                            std::size_t outer_index,
                                            std::span<double> z) {
  // Zero initial guess.  On the double plane the solve runs in place in
  // the caller's storage (b is the outer basis column, x the outer Z-arena
  // column); a narrowed plane runs on staged copies at its own scalar.
  cur_z_ = z;
  cur_outer_ = outer_index;
  retrying_ = false;
  pending_retry_iters_ = 0;
  pending_retry_applies_ = 0;
  pending_retry_syncs_ = 0;
  if constexpr (std::is_same_v<S, double>) {
    cur_q_ = q;
    cur_x_ = z;
  } else {
    q_staged_.resize(q.size());
    z_staged_.resize(z.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      q_staged_[i] = static_cast<S>(q[i]);
    }
    cur_q_ = q_staged_.span();
    cur_x_ = z_staged_.span();
  }
  return start_engine(hook_);
}

template <typename S>
GmresEngineT<S> InnerGmresT<S>::make_reliable_retry(
    const GmresEngineT<S>& aborted) {
  // Carry the aborted attempt's effort into the eventual record, then
  // rebuild the identical solve with the hook detached: no campaign can
  // re-inject and no detector can re-abort -- the recompute is reliable.
  pending_retry_iters_ = aborted.stats().iterations;
  pending_retry_applies_ = aborted.stats().operator_applies;
  pending_retry_syncs_ = aborted.stats().global_syncs;
  retrying_ = true;
  return start_engine(/*hook=*/nullptr);
}

template <typename S>
void InnerGmresT<S>::finish_engine(const GmresEngineT<S>& engine) {
  if constexpr (!std::is_same_v<S, double>) {
    for (std::size_t i = 0; i < cur_z_.size(); ++i) {
      cur_z_[i] = static_cast<double>(cur_x_[i]);
    }
  }
  const GmresStats& inner = engine.stats();
  InnerSolveRecord rec{.outer_index = engine.solve_index(),
                       .status = inner.status,
                       .iterations = pending_retry_iters_ + inner.iterations,
                       .operator_applies =
                           pending_retry_applies_ + inner.operator_applies,
                       .residual_norm = inner.residual_norm};
  rec.global_syncs = pending_retry_syncs_ + inner.global_syncs;
  rec.reliable_retries = retrying_ ? 1 : 0;
  rec.triggered_outer_restart =
      recovery_ == InnerRecovery::RestartOuter &&
      inner.status == SolveStatus::AbortedByDetector;
  records_.push_back(rec);
  retrying_ = false;
  pending_retry_iters_ = 0;
  pending_retry_applies_ = 0;
  pending_retry_syncs_ = 0;
}

template <typename S>
void InnerGmresT<S>::apply(std::span<const double> q, std::size_t outer_index,
                           std::span<double> z) {
  // The canonical straight-through drive of the shared engine (the
  // FT-GMRES driver runs the same protocol with the products fused per
  // block, including the reliable-retry turnover below).
  GmresEngineT<S> engine = make_engine(q, outer_index, z);
  drive_to_completion(*a_, engine);
  if (wants_reliable_retry(engine)) {
    GmresEngineT<S> retry = make_reliable_retry(engine);
    drive_to_completion(*a_, retry);
    finish_engine(retry);
    return;
  }
  finish_engine(engine);
}

// The two inner data planes: the reliable double solve and the narrowed
// float solve.
template class InnerGmresT<double>;
template class InnerGmresT<float>;

namespace {

/// Add the inner records' totals to \p result, whose global_syncs holds
/// the outer iteration's own.
void add_inner_totals(FtGmresResult& result) {
  for (const InnerSolveRecord& rec : result.inner_solves) {
    result.total_inner_iterations += rec.iterations;
    result.total_inner_applies += rec.operator_applies;
    result.reliable_retries += rec.reliable_retries;
    result.global_syncs += rec.global_syncs;
  }
}

/// Assemble an FtGmresResult from the outer FGMRES result and the inner
/// solve records (including the total-inner summations).
FtGmresResult make_ft_gmres_result(FgmresResult&& outer,
                                   std::vector<InnerSolveRecord> inner_solves) {
  FtGmresResult result;
  result.x = std::move(outer.x);
  result.status = outer.status;
  result.outer_iterations = outer.outer_iterations;
  result.residual_norm = outer.residual_norm;
  result.residual_history = std::move(outer.residual_history);
  result.inner_solves = std::move(inner_solves);
  result.sanitized_outputs = outer.sanitized_outputs;
  result.outer_restarts = outer.outer_restarts;
  result.global_syncs = outer.global_syncs;
  add_inner_totals(result);
  return result;
}

/// The result of an instance that rejoined \p t at boundary own.size():
/// the recorded solve's end, with the instance's inner records before the
/// boundary in place of the recording's.
FtGmresResult rejoined_result(const FtGmresTrajectory& t,
                              std::span<const InnerSolveRecord> own) {
  FtGmresResult result = t.end;
  for (const InnerSolveRecord& rec : result.inner_solves) {
    result.global_syncs -= rec.global_syncs;
  }
  std::copy(own.begin(), own.end(), result.inner_solves.begin());
  result.total_inner_iterations = 0;
  result.total_inner_applies = 0;
  result.reliable_retries = 0;
  add_inner_totals(result);
  return result;
}

/// The S-typed inner workspace slot of one instance: the double plane
/// uses the standard inner slot, float configurations the float arena.
template <typename S>
KrylovWorkspaceT<S>& inner_workspace_for(FtGmresWorkspace::Instance& w) noexcept {
  if constexpr (std::is_same_v<S, double>) {
    return w.inner;
  } else {
    return w.inner_f32;
  }
}

/// The inner lockstep phase's staging blocks at the plane's scalar: the
/// double plane shares the outer phase's blocks (the two levels never
/// overlap in time), a float plane stages through the float blocks.
template <typename S>
std::pair<la::BlockWorkspaceT<S>*, la::BlockWorkspaceT<S>*>
inner_staging(FtGmresWorkspace& w) noexcept {
  if constexpr (std::is_same_v<S, double>) {
    return {&w.directions, &w.products};
  } else {
    return {&w.directions_f32, &w.products_f32};
  }
}

/// One lockstep step of the live inner GMRES engines: pack every engine's
/// pending operand -- a cycle-start iterate or an Arnoldi direction, both
/// single columns of A's operand space -- into the staging block, stream
/// the matrix ONCE with apply_block, distribute the product columns, and
/// step each engine (start_cycle or advance).  Engines that reach a
/// terminal state (detector abort, breakdown, convergence, budget) are
/// first offered to \p on_done(engine_index): returning true means the
/// engine was replaced in place (the RetryReliable recompute) and stays
/// live; returning false drops it out of \p live without perturbing the
/// survivors, exactly like the outer dropout protocol.  A one-engine
/// block skips the staging copies and applies directly -- same operand,
/// same values, no detour.
///
/// Typed on the inner plane's scalar S, like its operator and staging
/// blocks.
template <typename S, typename OnDone>
void step_inner_block(const OperatorT<S>& A,
                      std::vector<GmresEngineT<S>>& inners,
                      std::vector<std::size_t>& live,
                      std::vector<std::size_t>& still_live,
                      la::BlockWorkspaceT<S>& directions,
                      la::BlockWorkspaceT<S>& products, OnDone&& on_done) {
  const std::size_t cols = live.size();
  if (cols == 1) {
    if (step_with_apply(A, inners[live[0]]) && !on_done(live[0]))
      live.clear();
    return;
  }

  // Each engine's product target is BOUND to its staging column for this
  // step, so apply_block's output lands exactly where start_cycle/advance
  // read it -- no per-column unpack copy.  Same values at a different
  // address, hence bitwise identical to the copying driver.  The binding
  // is per-step: column indices shift as engines drop out, so every round
  // re-binds before the fused product and unbinds right after its step.
  const la::BlockViewT<S> zblock = directions.view(cols);
  const la::BlockViewT<S> vblock = products.view(cols);
  for (std::size_t s = 0; s < cols; ++s) {
    GmresEngineT<S>& engine = inners[live[s]];
    engine.bind_product_target(vblock.col(s));
    if (engine.awaiting_residual()) {
      la::copy(engine.residual_operand(), zblock.col(s));
    } else {
      engine.begin_iteration();
      la::copy(engine.direction(), zblock.col(s));
    }
  }
  A.apply_block(zblock.as_basis_view(), vblock);

  still_live.clear();
  for (std::size_t s = 0; s < cols; ++s) {
    GmresEngineT<S>& engine = inners[live[s]];
    bool done = false;
    if (engine.awaiting_residual()) {
      done = engine.start_cycle();
    } else {
      done = engine.advance();
    }
    engine.unbind_product_target();
    if (done) done = !on_done(live[s]);
    if (!done) still_live.push_back(live[s]);
  }
  live.swap(still_live);
}

/// Counts the Arnoldi iterations a recorded solve's inner hook is shown.
class IterationCounter final : public ArnoldiHook {
public:
  void on_iteration_begin(const ArnoldiContext& ctx) override {
    (void)ctx;
    ++count_;
  }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

private:
  std::size_t count_ = 0;
};

/// The FT-GMRES driver: B nested solves in lockstep, a solo solve being
/// B = 1 (every one-column step then applies directly, with no staging).
/// An instance with a start trajectory resumes at its boundary, and may
/// rejoin it later (FtGmresStart::settled); the rest start from zero.
/// With \p record set (B = 1), the solve is recorded into it at every
/// outer boundary while the outer engine can replay it.
/// The outer (reliable) phase always runs in double against the original
/// operator \p A; only the inner phase's engines, staging, and products
/// are typed on the scalar of \p inner_op (A itself on the default plane,
/// otherwise the shared narrowed mirror).
template <typename S>
std::vector<FtGmresResult> drive_lockstep(
    const LinearOperator& A, const OperatorT<S>& inner_op,
    std::span<const std::span<const double>> bs, const FtGmresOptions& opts,
    std::span<ArnoldiHook* const> inner_hooks,
    std::span<const FtGmresStart> starts, FtGmresTrajectory* record,
    FtGmresWorkspace& w) {
  const std::size_t batch = bs.size();
  std::vector<FtGmresResult> results(batch);
  const FtGmresStart from_zero;
  const auto start_of = [&](std::size_t i) -> const FtGmresStart& {
    return starts.empty() ? from_zero : starts[i];
  };

  // Never shrink: a reused workspace keeps the warm arenas of earlier,
  // larger batches (the monotone-reserve contract of the data plane).
  // Only blocks of two or more columns stage, so a batch of one -- a solo
  // solve -- reserves no staging at all.
  if (w.instances.size() < batch) w.instances.resize(batch);
  const auto [inner_directions, inner_products] = inner_staging<S>(w);
  if (batch > 1) {
    w.directions.reserve(A.cols(), batch);
    w.products.reserve(A.rows(), batch);
    inner_directions->reserve(A.cols(), batch);
    inner_products->reserve(A.rows(), batch);
  }

  // Paper protocol: every instance starts from zero (a resumed one at a
  // boundary of a solve that did).
  const la::Vector x0(A.cols());

  // The recorded instance's hook events also reach a counter, so each
  // boundary knows how many inner iterations the hook had seen.
  IterationCounter counter;
  HookChain counted;
  bool recording = record != nullptr;

  std::vector<InnerGmresT<S>> inner;
  inner.reserve(batch);
  std::vector<FgmresEngine> engines;
  engines.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    ArnoldiHook* hook = inner_hooks.empty() ? nullptr : inner_hooks[i];
    if (recording) {
      if (hook != nullptr) counted.add(hook);
      counted.add(&counter);
      hook = &counted;
    }
    inner.emplace_back(inner_op, opts.inner, hook, opts.robust_first_inner,
                       &inner_workspace_for<S>(w.instances[i]),
                       opts.recovery);
    engines.emplace_back(A, bs[i], x0.span(), opts.outer,
                         w.instances[i].outer);
  }

  // `active` holds the indices of instances still iterating, in input
  // order; a terminated instance drops out without disturbing the rest.
  // `watch` marks the instances that may still rejoin their trajectory,
  // `rejoined` those whose result came from it.
  std::vector<std::size_t> active;
  active.reserve(batch);
  std::vector<char> watch(batch, 0);
  std::vector<char> rejoined(batch, 0);
  for (std::size_t i = 0; i < batch; ++i) {
    const FtGmresStart& from = start_of(i);
    watch[i] = from.trajectory != nullptr && from.settled ? 1 : 0;
    if (from.trajectory == nullptr || from.boundary == 0) {
      if (!engines[i].start()) active.push_back(i);
      continue;
    }
    // A recorded boundary is never finished: resume and prefill the inner
    // records of the skipped outer iterations.
    engines[i].resume(from.trajectory->outer, from.boundary);
    inner[i].prefill_records(
        std::span(from.trajectory->end.inner_solves).first(from.boundary));
    active.push_back(i);
  }

  std::vector<GmresEngineT<S>> inners;
  inners.reserve(batch);
  std::vector<std::size_t> inner_live;
  inner_live.reserve(batch);
  std::vector<std::size_t> inner_scratch;
  inner_scratch.reserve(batch);
  std::vector<std::size_t> live;
  live.reserve(batch);
  std::vector<std::size_t> producing;
  producing.reserve(batch);
  std::vector<char> alive;
  while (!active.empty()) {
    if (recording) {
      recording = engines[0].snapshot(record->outer);
      if (recording) record->hook_iterations.push_back(counter.count());
    }

    // --- Rejoin: an instance whose hooks have settled and whose outer
    // state is bitwise the recorded boundary would compute the rest of the
    // recorded solve, so it leaves the block with that result.  Survivors
    // keep their input order (the dropout protocol).
    live.clear();
    for (const std::size_t i : active) {
      const FtGmresStart& from = start_of(i);
      if (watch[i] != 0 && from.settled(engines[i].iteration())) {
        if (engines[i].matches(from.trajectory->outer)) {
          results[i] = rejoined_result(*from.trajectory, inner[i].records());
          rejoined[i] = 1;
          continue;
        }
        watch[i] = 0;
      }
      live.push_back(i);
    }
    active.swap(live);
    if (active.empty()) break;

    // --- Unreliable phase, in lockstep: one step-driveable inner engine
    // per live instance, all advanced together so each inner Arnoldi
    // iteration streams the matrix once for the whole block (the
    // dominant traffic: at the paper's 25 fixed inner iterations, ~25/26
    // of all products happen here).  Hook streams, fault campaigns,
    // detectors, and Hessenberg/QR state stay strictly per-instance, so
    // every instance sees the exact event stream of its solo run.
    inners.clear();
    inner_live.clear();
    for (std::size_t s = 0; s < active.size(); ++s) {
      const FgmresEngine::PrecondRequest req =
          engines[active[s]].begin_iteration();
      inners.push_back(inner[active[s]].make_engine(req.q, req.outer_index,
                                                    req.z));
      inner_live.push_back(s);
    }
    while (!inner_live.empty()) {
      step_inner_block(inner_op, inners, inner_live, inner_scratch,
                       *inner_directions, *inner_products,
                       [&](std::size_t s) {
                         // Terminal inner engine: the RetryReliable policy
                         // replaces a detector-aborted engine in place with
                         // its hook-free recompute (same operands, same
                         // lockstep slot), which simply keeps iterating in
                         // the block.  Same turnover apply() performs solo.
                         InnerGmresT<S>& p = inner[active[s]];
                         if (!p.wants_reliable_retry(inners[s])) return false;
                         inners[s] = p.make_reliable_retry(inners[s]);
                         return true;
                       });
    }
    for (std::size_t s = 0; s < active.size(); ++s) {
      inner[active[s]].finish_engine(inners[s]);
    }

    // --- RestartOuter recovery: a flagged instance folds its accepted
    // columns and restarts its outer cycle (rejoining the next round's
    // inner phase) instead of committing the poisoned direction; the
    // rest advance through the fused reliable product below.
    alive.assign(active.size(), 1);
    producing.clear();
    for (std::size_t s = 0; s < active.size(); ++s) {
      const std::size_t i = active[s];
      if (inner[i].last_record_requests_outer_restart()) {
        if (engines[i].restart_cycle()) alive[s] = 0;
      } else {
        producing.push_back(s);
      }
    }

    // --- The fused reliable product: pack every producing instance's
    // sanitized direction into the staging block and stream the matrix
    // ONCE (columns are bitwise equal to per-instance apply(), so
    // packing order cannot affect any instance).  A one-instance block
    // skips the staging copies and applies directly -- the same operand
    // and the same values, just without the detour.
    const std::size_t cols = producing.size();
    if (cols == 1) {
      FgmresEngine& only = engines[active[producing[0]]];
      A.apply(only.direction(), only.v_target());
      if (only.advance()) alive[producing[0]] = 0;
    } else if (cols > 1) {
      const la::BlockView zblock = w.directions.view(cols);
      for (std::size_t s = 0; s < cols; ++s) {
        la::copy(engines[active[producing[s]]].direction(), zblock.col(s));
      }
      const la::BlockView vblock = w.products.view(cols);
      A.apply_block(zblock.as_basis_view(), vblock);

      // --- Reliable phase, per instance: orthogonalize / project / check.
      for (std::size_t s = 0; s < cols; ++s) {
        const std::size_t i = active[producing[s]];
        la::copy(std::span<const double>(vblock.col(s)), engines[i].v_target());
        if (engines[i].advance()) alive[producing[s]] = 0;
      }
    }

    // Survivors keep their input order (the dropout protocol).
    live.clear();
    for (std::size_t s = 0; s < active.size(); ++s) {
      if (alive[s] != 0) live.push_back(active[s]);
    }
    active.swap(live);
  }

  for (std::size_t i = 0; i < batch; ++i) {
    if (rejoined[i] != 0) continue;
    results[i] =
        make_ft_gmres_result(engines[i].take_result(), inner[i].records());
  }
  if (record != nullptr) record->end = results[0];
  return results;
}

/// The checked entry of the driver: ft_gmres_batch and ft_gmres_recorded.
std::vector<FtGmresResult> run_lockstep(
    const LinearOperator& A, std::span<const std::span<const double>> bs,
    const FtGmresOptions& opts, std::span<ArnoldiHook* const> inner_hooks,
    FtGmresWorkspace* ws, std::span<const FtGmresStart> starts,
    FtGmresTrajectory* record) {
  const std::size_t batch = bs.size();
  if (!inner_hooks.empty() && inner_hooks.size() != batch) {
    throw std::invalid_argument(
        "ft_gmres_batch: inner_hooks must be empty or match bs in size");
  }
  if (!starts.empty() && starts.size() != batch) {
    throw std::invalid_argument(
        "ft_gmres_batch: starts must be empty or match bs in size");
  }
  if (batch == 0) return {};

  FtGmresWorkspace local;
  FtGmresWorkspace& w = (ws != nullptr) ? *ws : local;
  // The inner solves run on the operator the (precision, index_width)
  // pair selects -- one narrowed mirror that every instance shares -- while
  // the outer iteration (and its products) stays on A.
  return with_inner_operator(
      A, opts, w.plane, [&]<typename S>(const OperatorT<S>& inner_op) {
        return drive_lockstep(A, inner_op, bs, opts, inner_hooks, starts,
                              record, w);
      });
}

} // namespace

std::vector<FtGmresResult> ft_gmres_batch(
    const LinearOperator& A, std::span<const std::span<const double>> bs,
    const FtGmresOptions& opts, std::span<ArnoldiHook* const> inner_hooks,
    FtGmresWorkspace* ws, std::span<const FtGmresStart> starts) {
  return run_lockstep(A, bs, opts, inner_hooks, ws, starts, nullptr);
}

std::vector<FtGmresResult> ft_gmres_batch(
    const LinearOperator& A, const std::vector<la::Vector>& bs,
    const FtGmresOptions& opts, std::span<ArnoldiHook* const> inner_hooks,
    FtGmresWorkspace* ws) {
  std::vector<std::span<const double>> spans;
  spans.reserve(bs.size());
  for (const la::Vector& b : bs) spans.push_back(b.span());
  return ft_gmres_batch(A, spans, opts, inner_hooks, ws);
}

FtGmresResult ft_gmres(const LinearOperator& A, const la::Vector& b,
                       const FtGmresOptions& opts, ArnoldiHook* inner_hook,
                       FtGmresWorkspace* ws) {
  // A solo solve is a lockstep batch of one.
  const std::span<const double> bs[] = {b.span()};
  ArnoldiHook* const hooks[] = {inner_hook};
  return std::move(ft_gmres_batch(A, bs, opts, hooks, ws).front());
}

FtGmresResult ft_gmres_recorded(const LinearOperator& A, const la::Vector& b,
                                const FtGmresOptions& opts,
                                ArnoldiHook* inner_hook,
                                FtGmresTrajectory& trajectory) {
  trajectory = {};
  const std::span<const double> bs[] = {b.span()};
  ArnoldiHook* const hooks[] = {inner_hook};
  return std::move(
      run_lockstep(A, bs, opts, hooks, nullptr, {}, &trajectory).front());
}

FtGmresResult ft_gmres(const sparse::CsrMatrix& A, const la::Vector& b,
                       const FtGmresOptions& opts, ArnoldiHook* inner_hook,
                       FtGmresWorkspace* ws) {
  const CsrOperator op(A);
  return ft_gmres(op, b, opts, inner_hook, ws);
}

} // namespace sdcgmres::krylov
