/// Tests for the evaluation-engine overhaul: the shared-sample partition
/// sweep and the memoized adaptive driver must be *bit-identical* to the
/// naive formulations they replaced, and their evaluation counts must hit
/// the algebraic identities the perf-smoke gate relies on (4n+1 per sweep,
/// 2 per memoized bisection child, 4k+1 for a fully refined tree).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "beam/wake.hpp"
#include "quad/adaptive.hpp"
#include "quad/batch_eval.hpp"
#include "quad/simpson.hpp"
#include "simt_oracle.hpp"
#include "test_helpers.hpp"

namespace bd::quad {
namespace {

simt::NullProbe& probe() { return simt::NullProbe::instance(); }

/// A smooth but non-polynomial integrand (nonzero Richardson error on
/// every interval) with an evaluation counter.
struct CountedIntegrand final : RadialIntegrand {
  mutable std::uint64_t evals = 0;
  double eval(double r, simt::LaneProbe&) const override {
    ++evals;
    return std::exp(-0.7 * r) * std::sin(3.0 * r + 0.25) + 0.1 * r * r;
  }
};

std::vector<double> irregular_partition() {
  return {0.0, 0.17, 0.4, 1.0, 1.03, 2.5, 3.0, 4.75, 6.0};
}

TEST(SimpsonSweep, BitwiseIdenticalToNaiveLoop) {
  const CountedIntegrand f;
  const std::vector<double> partition = irregular_partition();
  const std::size_t n = partition.size() - 1;

  std::vector<QuadEstimate> naive;
  for (std::size_t i = 0; i < n; ++i) {
    naive.push_back(
        simpson_estimate(f, partition[i], partition[i + 1], probe()));
  }

  std::vector<QuadEstimate> swept;
  std::vector<SimpsonSamples> samples;
  simpson_sweep(f, partition, probe(),
                [&](std::size_t, double, double, const QuadEstimate& est,
                    const SimpsonSamples& s) {
                  swept.push_back(est);
                  samples.push_back(s);
                });

  ASSERT_EQ(swept.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    // Exact double equality on purpose: the sweep reuses f(b_i) as
    // f(a_{i+1}) but every sample-point expression is unchanged.
    EXPECT_EQ(swept[i].integral, naive[i].integral) << "interval " << i;
    EXPECT_EQ(swept[i].error, naive[i].error) << "interval " << i;
  }
  // The visited samples are the real interval samples (the fallback seeds
  // adaptive refinement with them): recombining must reproduce the
  // estimate exactly.
  for (std::size_t i = 0; i < n; ++i) {
    const QuadEstimate re =
        simpson_combine(partition[i], partition[i + 1], samples[i], probe());
    EXPECT_EQ(re.integral, swept[i].integral) << "interval " << i;
    EXPECT_EQ(re.error, swept[i].error) << "interval " << i;
  }
}

TEST(SimpsonSweep, CostsFourNPlusOneEvaluations) {
  for (std::size_t n : {1u, 2u, 7u, 32u}) {
    CountedIntegrand f;
    std::vector<double> partition;
    for (std::size_t i = 0; i <= n; ++i) {
      partition.push_back(6.0 * static_cast<double>(i) /
                          static_cast<double>(n));
    }
    const std::uint64_t reported =
        simpson_sweep(f, partition, probe(),
                      [](std::size_t, double, double, const QuadEstimate&,
                         const SimpsonSamples&) {});
    EXPECT_EQ(reported, 4 * n + 1) << "n=" << n;
    EXPECT_EQ(f.evals, 4 * n + 1) << "n=" << n;  // naive loop pays 5n
  }
}

TEST(SimpsonSweep, DegenerateInputsCostNothing) {
  CountedIntegrand f;
  auto visit = [](std::size_t, double, double, const QuadEstimate&,
                  const SimpsonSamples&) { FAIL() << "no intervals"; };
  EXPECT_EQ(simpson_sweep(f, {}, probe(), visit), 0u);
  const std::vector<double> single{1.0};
  EXPECT_EQ(simpson_sweep(f, single, probe(), visit), 0u);
  EXPECT_EQ(f.evals, 0u);
}

TEST(SimpsonMemo, TwoEvaluationsAndBitIdenticalEstimate) {
  const CountedIntegrand f;
  const double a = 0.3, b = 2.1;
  const QuadEstimate full = simpson_estimate(f, a, b, probe());
  EXPECT_EQ(f.evals, 5u);

  const double m = 0.5 * (a + b);
  f.evals = 0;
  const double fa = f.eval(a, probe());
  const double fm = f.eval(m, probe());
  const double fb = f.eval(b, probe());
  SimpsonSamples out;
  const QuadEstimate memo =
      simpson_estimate_memo(f, a, b, fa, fm, fb, probe(), out);
  EXPECT_EQ(f.evals, 5u);  // 3 coarse (paid above) + exactly 2 fine
  EXPECT_EQ(memo.integral, full.integral);
  EXPECT_EQ(memo.error, full.error);
  EXPECT_EQ(out.fa, fa);
  EXPECT_EQ(out.fm, fm);
  EXPECT_EQ(out.fb, fb);
}

/// The historical non-memoized adaptive driver, reimplemented verbatim as
/// a reference: same worklist discipline (LIFO, left child on top), same
/// accept/poison/budget logic, but every item pays the full 5-point
/// simpson_estimate.
AdaptiveResult reference_adaptive(const RadialIntegrand& f, double a,
                                  double b, double tol,
                                  const AdaptiveOptions& options = {}) {
  struct Item {
    double a, b, tol;
    int depth;
  };
  AdaptiveResult result;
  std::vector<Item> stack{{a, b, tol, 0}};
  std::vector<double> interior;
  std::uint64_t intervals_created = 1;
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    const QuadEstimate est =
        simpson_estimate(f, item.a, item.b, probe());
    result.evaluations += 5;
    const bool poisoned =
        !std::isfinite(est.integral) || !std::isfinite(est.error);
    const bool accepted = poisoned || est.error <= item.tol ||
                          item.depth >= options.max_depth ||
                          intervals_created >= options.max_intervals;
    if (accepted) {
      if (poisoned || est.error > item.tol) result.converged = false;
      result.integral += est.integral;
      result.error += est.error;
      if (item.a != a) interior.push_back(item.a);
    } else {
      const double m = 0.5 * (item.a + item.b);
      stack.push_back({m, item.b, 0.5 * item.tol, item.depth + 1});
      stack.push_back({item.a, m, 0.5 * item.tol, item.depth + 1});
      ++intervals_created;
    }
  }
  std::sort(interior.begin(), interior.end());
  result.breakpoints.push_back(a);
  for (double x : interior) result.breakpoints.push_back(x);
  result.breakpoints.push_back(b);
  return result;
}

TEST(AdaptiveMemo, BitwiseIdenticalToNonMemoizedReference) {
  const CountedIntegrand f;
  for (double tol : {1e-3, 1e-6, 1e-9}) {
    const AdaptiveResult memo = adaptive_simpson(f, 0.0, 6.0, tol, probe());
    const AdaptiveResult ref = reference_adaptive(f, 0.0, 6.0, tol);
    ASSERT_GT(memo.breakpoints.size(), 2u) << "tol too loose to refine";
    EXPECT_EQ(memo.integral, ref.integral) << "tol=" << tol;
    EXPECT_EQ(memo.error, ref.error) << "tol=" << tol;
    EXPECT_EQ(memo.converged, ref.converged) << "tol=" << tol;
    EXPECT_EQ(memo.breakpoints, ref.breakpoints) << "tol=" << tol;
    // Memoization changes only who pays: evals + saved must equal the
    // reference's full price.
    EXPECT_EQ(memo.evaluations + memo.evaluations_saved, ref.evaluations)
        << "tol=" << tol;
    EXPECT_LT(memo.evaluations, ref.evaluations) << "tol=" << tol;
  }
}

TEST(AdaptiveMemo, FullyRefinedTreeCostsFourLeavesPlusOne) {
  // An impossible tolerance with a shallow depth cap forces a complete
  // binary tree of 2^depth leaves; each bisection child costs exactly 2
  // new evaluations, so the whole tree costs 4k+1 where k = leaf count.
  const CountedIntegrand f;
  AdaptiveOptions options;
  options.max_depth = 3;
  const AdaptiveResult r =
      adaptive_simpson(f, 0.0, 6.0, 1e-300, probe(), options);
  const std::uint64_t k = 8;  // 2^3 leaves
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.breakpoints.size(), k + 1);
  EXPECT_EQ(r.evaluations, 4 * k + 1);
  EXPECT_EQ(f.evals, 4 * k + 1);
  // Old cost: 5 per node over the full tree of 2k-1 nodes.
  EXPECT_EQ(r.evaluations + r.evaluations_saved, 5 * (2 * k - 1));
}

TEST(AdaptiveMemo, SeededRootReusesSweepSamples) {
  // The fallback path: kernel 1 already holds the five samples of a failed
  // interval, so the seeded driver books zero evaluations for the root.
  const CountedIntegrand f;
  const double a = 0.0, b = 3.0, m = 0.5 * (a + b);
  SimpsonSamples root;
  root.fa = f.eval(a, probe());
  root.fm = f.eval(m, probe());
  root.fb = f.eval(b, probe());
  root.fl = f.eval(0.5 * (a + m), probe());
  root.fr = f.eval(0.5 * (m + b), probe());
  f.evals = 0;

  std::vector<AdaptiveWorkItem> stack;
  const AdaptiveOutcome seeded = adaptive_simpson_seeded(
      f, a, b, 1e-8, root, probe(), {}, stack,
      [](const AdaptiveWorkItem&, const QuadEstimate&) {});
  EXPECT_EQ(seeded.evaluations, f.evals);  // root cost nothing new
  const AdaptiveResult standalone =
      adaptive_simpson(f, a, b, 1e-8, probe());
  EXPECT_EQ(standalone.evaluations, seeded.evaluations + 5);
  EXPECT_EQ(standalone.integral, seeded.integral);
  EXPECT_EQ(standalone.error, seeded.error);
}

TEST(WakeIntegrandProperty, PureEvaluationOnRealProblem) {
  // The sweep's sample reuse and the memo driver's sample inheritance are
  // sound only if the production integrand is pure (same r -> same bits).
  const bd::testing::ProblemFixture fixture(16, 1e-6);
  const beam::GridSpec& spec = fixture.spec;
  const beam::WakeIntegrand integrand(
      *fixture.problem.history, *fixture.problem.model, spec.x_at(7),
      spec.y_at(9), fixture.problem.step, fixture.problem.sub_width);
  for (double r : {0.0, 0.3, 1.7, 4.2, fixture.problem.r_max()}) {
    const double first = integrand.eval(r, probe());
    const double second = integrand.eval(r, probe());
    EXPECT_EQ(first, second) << "r=" << r;
  }
}

TEST(WakeIntegrandProperty, SweepMatchesNaiveLoopOnRealProblem) {
  const bd::testing::ProblemFixture fixture(16, 1e-6);
  const beam::GridSpec& spec = fixture.spec;
  const beam::WakeIntegrand integrand(
      *fixture.problem.history, *fixture.problem.model, spec.x_at(5),
      spec.y_at(8), fixture.problem.step, fixture.problem.sub_width);
  std::vector<double> partition;
  const std::size_t n = 12;
  for (std::size_t i = 0; i <= n; ++i) {
    partition.push_back(fixture.problem.r_max() * static_cast<double>(i) /
                        static_cast<double>(n));
  }
  std::vector<QuadEstimate> naive;
  for (std::size_t i = 0; i < n; ++i) {
    naive.push_back(
        simpson_estimate(integrand, partition[i], partition[i + 1], probe()));
  }
  std::size_t visited = 0;
  simpson_sweep(integrand, partition, probe(),
                [&](std::size_t i, double, double, const QuadEstimate& est,
                    const SimpsonSamples&) {
                  EXPECT_EQ(est.integral, naive[i].integral) << i;
                  EXPECT_EQ(est.error, naive[i].error) << i;
                  ++visited;
                });
  EXPECT_EQ(visited, n);
}

// ---- Batched integrand engine (src/beam/wake_batch.cpp) -------------------
// eval_batch must be bitwise identical to sequential eval() calls — output
// values AND probe event streams — for every batch width, including
// boundary stencils and out-of-range samples.

/// The simpson-sweep batch layout for subregion interval j of width 1.
std::array<double, 4> sweep_batch(std::size_t j) {
  const double a = static_cast<double>(j);
  const double b = a + 1.0;
  const double m = 0.5 * (a + b);
  return {m, b, 0.5 * (a + m), 0.5 * (m + b)};
}

TEST(SimdBatch, BatchedMatchesScalarBitwiseOnTableIWorkload) {
  // Table I default geometry (64×64, 12 subregions). Strided nodes cover
  // interior and boundary stencils; the samples are exactly the batches
  // simpson_sweep hands to eval_batch in production.
  const bd::testing::ProblemFixture fixture(64, 1e-6, 12);
  const beam::GridSpec& spec = fixture.spec;
  for (std::uint32_t node = 0; node < spec.nx * spec.ny; node += 97) {
    const std::uint32_t ix = node % spec.nx;
    const std::uint32_t iy = node / spec.nx;
    const beam::WakeIntegrand f(
        *fixture.problem.history, *fixture.problem.model, spec.x_at(ix),
        spec.y_at(iy), fixture.problem.step, fixture.problem.sub_width);
    for (std::size_t j = 0; j < 12; ++j) {
      const std::array<double, 4> u = sweep_batch(j);
      double ref[4], got[4];
      for (std::size_t k = 0; k < 4; ++k) ref[k] = f.eval(u[k], probe());
      f.eval_batch(u.data(), got, 4, probe());
      for (std::size_t k = 0; k < 4; ++k) {
        ASSERT_EQ(got[k], ref[k])
            << "node (" << ix << "," << iy << ") interval " << j
            << " lane " << k;
      }
    }
  }
}

TEST(SimdBatch, PartialWidthsBoundaryAndOutOfRangeSamples) {
  // Partial widths 1..3 next to full batches; out-of-range u (past r_max
  // the range branch rejects) and edge nodes (x-stencil out of bounds) mix
  // rejected and accumulated lanes inside one eval_batch call.
  const bd::testing::ProblemFixture fixture(16, 1e-6, 12);
  const beam::GridSpec& spec = fixture.spec;
  const double far = fixture.problem.r_max() + 25.0;  // in_range == false
  const std::uint32_t nodes[][2] = {{0, 0}, {1, 8}, {8, 8}, {15, 15}};
  for (const auto& node : nodes) {
    const beam::WakeIntegrand f(
        *fixture.problem.history, *fixture.problem.model,
        spec.x_at(node[0]), spec.y_at(node[1]), fixture.problem.step,
        fixture.problem.sub_width);
    const double samples[] = {0.0, 0.75, far, 2.5, far, 0.1, 4.9};
    for (std::size_t n = 1; n <= quad::kBatchWidth; ++n) {
      for (std::size_t off = 0; off + n <= std::size(samples); ++off) {
        double ref[quad::kBatchWidth], got[quad::kBatchWidth];
        for (std::size_t k = 0; k < n; ++k) {
          ref[k] = f.eval(samples[off + k], probe());
        }
        f.eval_batch(samples + off, got, n, probe());
        for (std::size_t k = 0; k < n; ++k) {
          ASSERT_EQ(got[k], ref[k]) << "node (" << node[0] << "," << node[1]
                                    << ") width " << n << " lane " << k;
        }
      }
    }
  }
}

TEST(SimdBatch, ProbeStreamIdenticalToSequentialEval) {
  // The warp analyzer reconstructs lockstep execution from these streams;
  // the batched path must emit the very same events. Emission is lane-major
  // with per-lane ordering equal to eval()'s, so the raw vectors — not just
  // the per-site subsequences — must match.
  const bd::testing::ProblemFixture fixture(32, 1e-6, 12);
  const beam::GridSpec& spec = fixture.spec;
  const beam::WakeIntegrand f(
      *fixture.problem.history, *fixture.problem.model, spec.x_at(3),
      spec.y_at(28), fixture.problem.step, fixture.problem.sub_width);
  const double far = fixture.problem.r_max() + 25.0;
  const std::array<std::array<double, 4>, 3> batches = {
      sweep_batch(0), sweep_batch(7), {1.0, far, 0.25, far}};
  for (const auto& u : batches) {
    bd::testing::LaneTrace scalar_trace, batch_trace;
    double ref[4], got[4];
    for (std::size_t k = 0; k < 4; ++k) {
      ref[k] = f.eval(u[k], scalar_trace);
    }
    f.eval_batch(u.data(), got, 4, batch_trace);
    for (std::size_t k = 0; k < 4; ++k) ASSERT_EQ(got[k], ref[k]);

    EXPECT_EQ(batch_trace.flops(), scalar_trace.flops());
    ASSERT_EQ(batch_trace.loads().size(), scalar_trace.loads().size());
    for (std::size_t i = 0; i < scalar_trace.loads().size(); ++i) {
      const bd::testing::LoadEvent& a = scalar_trace.loads()[i];
      const bd::testing::LoadEvent& b = batch_trace.loads()[i];
      ASSERT_EQ(b.site, a.site) << "load " << i;
      ASSERT_EQ(b.addr, a.addr) << "load " << i;
      ASSERT_EQ(b.bytes, a.bytes) << "load " << i;
    }
    ASSERT_EQ(batch_trace.branches().size(), scalar_trace.branches().size());
    for (std::size_t i = 0; i < scalar_trace.branches().size(); ++i) {
      ASSERT_EQ(batch_trace.branches()[i].site,
                scalar_trace.branches()[i].site) << "branch " << i;
      ASSERT_EQ(batch_trace.branches()[i].taken,
                scalar_trace.branches()[i].taken) << "branch " << i;
    }
    EXPECT_EQ(batch_trace.loops().size(), scalar_trace.loops().size());
  }
}

TEST(SimdBatch, DefaultEvalBatchLoopsOverEval) {
  // RadialIntegrands without a custom batch path fall back to n sequential
  // eval() calls — identical bits, identical evaluation counts (the eval-
  // count identities above depend on this).
  const CountedIntegrand f;
  const double u[4] = {0.1, 1.9, 3.2, 5.5};
  double ref[4], got[4];
  for (std::size_t k = 0; k < 4; ++k) ref[k] = f.eval(u[k], probe());
  f.evals = 0;
  f.eval_batch(u, got, 4, probe());
  EXPECT_EQ(f.evals, 4u);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(got[k], ref[k]);
}

}  // namespace
}  // namespace bd::quad
