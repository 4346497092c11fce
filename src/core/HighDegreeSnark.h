#ifndef BZK_CORE_HIGHDEGREESNARK_H_
#define BZK_CORE_HIGHDEGREESNARK_H_

/**
 * @file
 * The HighDegreeGate proof system (ProtocolKind::HighDegreeGate): the
 * table SNARK with a HyperPlonk-style high-degree custom gate,
 *
 *   sum_x eq(tau,x) * (a(x)^4 * b(x) - c(x)) = 0,
 *
 * whose degree-6 round polynomials shift the module cost mix toward
 * the sum-check stage — the workload shape zkSpeed/zkPHIRE report for
 * HyperPlonk, and the stress case for the scheduler's measured-cost
 * lane policy.
 */

#include <cstdint>

#include "core/TableSnark.h"
#include "util/Rng.h"

namespace bzk {

template <typename F>
struct HighDegreeProof;

/** x^4 via two squarings. */
template <typename F>
inline F
pow4(const F &x)
{
    F sq = x * x;
    return sq * sq;
}

/** The degree-5 gate a^4*b - c: degree-6 round polynomials. */
struct Pow4Gate
{
    static constexpr size_t kDegree = 6;

    template <typename F>
    static F
    eval(const F &a, const F &b, const F &c)
    {
        return pow4(a) * b - c;
    }

    static constexpr const char *kDomain = "batchzk.hdg.v1";
    static constexpr uint8_t kProofTag = 0x04;
    static constexpr SumcheckLabels kLabels{"hdg.g", "hdg.r"};
    template <typename F>
    using Proof = HighDegreeProof<F>;
    template <typename F>
    static constexpr auto kSumcheck = &HighDegreeProof<F>::gate_sc;
};

/** A complete HighDegreeGate proof (same wire shape as SnarkProof). */
template <typename F>
struct HighDegreeProof : TableProofBody<F>
{
    /** Degree-6 gate sum-check: 7 evaluations per round. */
    ProductSumcheckProof<F> gate_sc;

    /** Rough wire size of the proof in bytes. */
    size_t
    sizeBytes() const
    {
        return TableProofBody<F>::sizeBytes(gate_sc);
    }
};

/** Prover + verifier for the high-degree gate protocol. */
template <typename F>
using HighDegreeSnark = TableSnark<F, Pow4Gate>;

/**
 * Build a satisfiable high-degree gate instance: a and b are random,
 * c = a^4 * b pointwise. Deterministic in @p rng — the durable service
 * and the network executor derive identical instances from
 * taskInstanceRng, which is what keeps crash+replay bit-identical.
 */
template <typename F>
ConstraintTables<F>
highDegreeInstance(unsigned n_vars, Rng &rng)
{
    size_t size = size_t{1} << n_vars;
    ConstraintTables<F> tables;
    tables.n_vars = n_vars;
    tables.a.resize(size);
    tables.b.resize(size);
    tables.c.resize(size);
    for (size_t i = 0; i < size; ++i) {
        tables.a[i] = F::random(rng);
        tables.b[i] = F::random(rng);
        tables.c[i] = pow4(tables.a[i]) * tables.b[i];
    }
    return tables;
}

} // namespace bzk

#endif // BZK_CORE_HIGHDEGREESNARK_H_
