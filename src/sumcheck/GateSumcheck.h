#ifndef BZK_SUMCHECK_GATESUMCHECK_H_
#define BZK_SUMCHECK_GATESUMCHECK_H_

/**
 * @file
 * The gate sum-check: one prover and one verifier for every gate
 * identity a table SNARK checks row-wise,
 *
 *   sum_x eq(tau,x) * gate(a(x), b(x), c(x)) = 0.
 *
 * The gate is data, in the style of zkPHIRE's programmable sum-check
 * unit. A Gate type supplies
 *
 *   static constexpr size_t kDegree;  // degree of eq * gate per variable
 *   template <typename F> static F eval(const F &a, const F &b, const F &c);
 *
 * and the round polynomials, of degree kDegree, travel as their
 * evaluations at t = 0..kDegree. The multiplicative gate a*b - c gives
 * the cubic constraint sum-check; a^4*b - c gives the HyperPlonk-style
 * degree-6 custom gate.
 *
 * Round sums run under the fixed-shape chunked reduction, so proofs
 * are bit-identical for any thread count.
 */

#include <array>
#include <cstddef>
#include <vector>

#include "exec/ExecContext.h"
#include "hash/Transcript.h"
#include "poly/Multilinear.h"
#include "sumcheck/Sumcheck.h"
#include "util/Log.h"

namespace bzk {

/** Transcript labels one gate sum-check absorbs its rounds under. */
struct SumcheckLabels
{
    /** Label of each round evaluation. */
    const char *g;
    /** Label of each round challenge. */
    const char *r;
};

/**
 * Prove sum_x eq(x) * Gate::eval(a(x), b(x), c(x)) == 0
 * non-interactively. All four tables must have the same power-of-two
 * size; they are folded in place round by round, so a[0], b[0], c[0]
 * end as the tables' values at the sum-check point. Challenges come
 * from @p transcript, which must already have absorbed the statement.
 * @p point_out accumulates the round challenges.
 */
template <typename F, typename Gate>
ProductSumcheckProof<F>
proveGateSumcheckFs(std::vector<F> &eq, std::vector<F> &a,
                    std::vector<F> &b, std::vector<F> &c,
                    Transcript &transcript, const SumcheckLabels &labels,
                    std::vector<F> *point_out = nullptr,
                    const exec::ExecContext *exec = nullptr)
{
    constexpr size_t kEvals = Gate::kDegree + 1;
    size_t size = eq.size();
    if (size == 0 || (size & (size - 1)) != 0)
        panic("proveGateSumcheckFs: table size %zu not a power of two",
              size);
    if (a.size() != size || b.size() != size || c.size() != size)
        panic("proveGateSumcheckFs: mismatched table sizes");

    if (exec)
        exec->setRegion("sumcheck");
    ProductSumcheckProof<F> proof;
    using Sums = std::array<F, kEvals>;
    Sums zero;
    zero.fill(F::zero());
    for (size_t half = size / 2; half > 0; half /= 2) {
        auto chunk_sums = [&](size_t begin, size_t end) {
            Sums s = zero;
            for (size_t x = begin; x < end; ++x) {
                // Each factor restricted to the round variable is
                // affine, lo + t*(hi - lo): t = 0 and t = 1 are the
                // half-table values, and each further t adds one step.
                F d_eq = eq[x + half] - eq[x];
                F d_a = a[x + half] - a[x];
                F d_b = b[x + half] - b[x];
                F d_c = c[x + half] - c[x];
                F eq_t = eq[x + half];
                F a_t = a[x + half];
                F b_t = b[x + half];
                F c_t = c[x + half];
                s[0] += eq[x] * Gate::eval(a[x], b[x], c[x]);
                s[1] += eq_t * Gate::eval(a_t, b_t, c_t);
                for (size_t t = 2; t < kEvals; ++t) {
                    eq_t += d_eq;
                    a_t += d_a;
                    b_t += d_b;
                    c_t += d_c;
                    s[t] += eq_t * Gate::eval(a_t, b_t, c_t);
                }
            }
            return s;
        };
        Sums sums = exec::reduceChunked<Sums>(
            exec, half, zero, chunk_sums,
            [](const Sums &l, const Sums &r) {
                Sums out;
                for (size_t t = 0; t < kEvals; ++t)
                    out[t] = l[t] + r[t];
                return out;
            });
        std::vector<F> g(sums.begin(), sums.end());
        for (const F &gi : g)
            transcript.absorbField(labels.g, gi);
        F r = transcript.template challengeField<F>(labels.r);
        auto fold = [&](size_t begin, size_t end) {
            for (size_t x = begin; x < end; ++x) {
                eq[x] = eq[x] + r * (eq[x + half] - eq[x]);
                a[x] = a[x] + r * (a[x + half] - a[x]);
                b[x] = b[x] + r * (b[x + half] - b[x]);
                c[x] = c[x] + r * (c[x + half] - c[x]);
            }
        };
        if (exec)
            exec->parallelFor(half, fold);
        else
            fold(0, half);
        eq.resize(half);
        a.resize(half);
        b.resize(half);
        c.resize(half);
        if (point_out)
            point_out->push_back(r);
        proof.rounds.push_back(std::move(g));
    }
    return proof;
}

/**
 * Verifier side of proveGateSumcheckFs. Every round must carry exactly
 * Gate::kDegree + 1 evaluations. The caller checks the verdict's
 * point length and that its final_claim equals
 * eqEval(tau, point) * Gate::eval(va, vb, vc) for its table oracles.
 */
template <typename F, typename Gate>
SumcheckVerdict<F>
verifyGateSumcheckFs(const F &claimed_sum,
                     const ProductSumcheckProof<F> &proof,
                     Transcript &transcript, const SumcheckLabels &labels)
{
    std::vector<F> xs(Gate::kDegree + 1);
    for (size_t t = 0; t < xs.size(); ++t)
        xs[t] = F::fromUint(t);
    SumcheckVerdict<F> verdict;
    F claim = claimed_sum;
    for (const auto &g : proof.rounds) {
        if (g.size() != xs.size() || g[0] + g[1] != claim)
            return verdict;
        for (const F &gi : g)
            transcript.absorbField(labels.g, gi);
        F r = transcript.template challengeField<F>(labels.r);
        claim = lagrangeEval(xs, g, r);
        verdict.point.push_back(r);
    }
    verdict.ok = true;
    verdict.final_claim = claim;
    return verdict;
}

} // namespace bzk

#endif // BZK_SUMCHECK_GATESUMCHECK_H_
