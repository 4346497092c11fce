/**
 * @file
 * End-to-end tests of the table SNARK for every gate (the multiplicative
 * table-commit gate and the high-degree gate) over both fields:
 * prove/verify round trips, rejection of tampered proofs and
 * unsatisfied tables.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "circuit/Circuit.h"
#include "core/HighDegreeSnark.h"
#include "core/Snark.h"
#include "ff/Fields.h"

namespace bzk {
namespace {

/** One (gate, field) pair of the typed suite. */
template <typename G, typename Field>
struct GateField
{
    using Gate = G;
    using F = Field;
};

template <typename T>
class SnarkT : public ::testing::Test
{
};

using GateFields =
    ::testing::Types<GateField<MulGate, Fr>, GateField<MulGate, Gl64>,
                     GateField<Pow4Gate, Fr>, GateField<Pow4Gate, Gl64>>;
TYPED_TEST_SUITE(SnarkT, GateFields);

template <typename F>
ConstraintTables<F>
satisfiedTables(unsigned n_vars, Rng &rng, Circuit<F> *circuit_out = nullptr)
{
    // A random circuit sized to fill 2^n_vars rows.
    size_t target = (size_t{1} << n_vars) - (size_t{1} << (n_vars - 2));
    auto c = randomCircuit<F>(target, 8, rng);
    std::vector<F> witness(c.numWitnesses());
    for (auto &w : witness)
        w = F::random(rng);
    auto asg = c.evaluate({}, witness);
    auto t = c.buildTables(asg);
    EXPECT_EQ(t.n_vars, n_vars);
    if (circuit_out)
        *circuit_out = c;
    return t;
}

/** Tables satisfying @p Gate row-wise. */
template <typename Gate, typename F>
ConstraintTables<F>
gateTables(unsigned n_vars, Rng &rng)
{
    if constexpr (std::is_same_v<Gate, MulGate>)
        return satisfiedTables<F>(n_vars, rng);
    else
        return highDegreeInstance<F>(n_vars, rng);
}

TYPED_TEST(SnarkT, ProveVerifyRoundTrip)
{
    using Gate = typename TypeParam::Gate;
    using F = typename TypeParam::F;
    Rng rng(1);
    for (unsigned n : {6u, 8u, 10u}) {
        auto tables = gateTables<Gate, F>(n, rng);
        TableSnark<F, Gate> snark(n, /*seed=*/99);
        auto proof = snark.prove(tables, {});
        EXPECT_TRUE(snark.verify(proof, {})) << "n=" << n;
    }
}

TYPED_TEST(SnarkT, ProofSizeIsNontrivial)
{
    // The paper notes proofs of this protocol family reach MBs; at toy
    // sizes we just check the accounting is sane and grows.
    using Gate = typename TypeParam::Gate;
    using F = typename TypeParam::F;
    Rng rng(2);
    auto t8 = gateTables<Gate, F>(8, rng);
    auto t10 = gateTables<Gate, F>(10, rng);
    TableSnark<F, Gate> s8(8, 99), s10(10, 99);
    auto p8 = s8.prove(t8, {});
    auto p10 = s10.prove(t10, {});
    EXPECT_GT(p8.sizeBytes(), 1000u);
    EXPECT_GT(p10.sizeBytes(), p8.sizeBytes());
}

TYPED_TEST(SnarkT, RejectsUnsatisfiedTables)
{
    using Gate = typename TypeParam::Gate;
    using F = typename TypeParam::F;
    Rng rng(3);
    auto tables = gateTables<Gate, F>(8, rng);
    tables.c[5] += F::one(); // break one constraint
    TableSnark<F, Gate> snark(8, 99);
    auto proof = snark.prove(tables, {});
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsTamperedOpeningValue)
{
    using Gate = typename TypeParam::Gate;
    using F = typename TypeParam::F;
    Rng rng(4);
    auto tables = gateTables<Gate, F>(8, rng);
    TableSnark<F, Gate> snark(8, 99);
    auto proof = snark.prove(tables, {});
    proof.va += F::one();
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsTamperedSumcheckRound)
{
    using Gate = typename TypeParam::Gate;
    using F = typename TypeParam::F;
    Rng rng(5);
    auto tables = gateTables<Gate, F>(8, rng);
    TableSnark<F, Gate> snark(8, 99);
    auto proof = snark.prove(tables, {});
    (proof.*Gate::template kSumcheck<F>).rounds[2][1] += F::one();
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsTamperedCommitment)
{
    using Gate = typename TypeParam::Gate;
    using F = typename TypeParam::F;
    Rng rng(6);
    auto tables = gateTables<Gate, F>(8, rng);
    TableSnark<F, Gate> snark(8, 99);
    auto proof = snark.prove(tables, {});
    proof.commit_b.root.bytes[7] ^= 0x80;
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, RejectsSwappedOpenings)
{
    using Gate = typename TypeParam::Gate;
    using F = typename TypeParam::F;
    Rng rng(7);
    auto tables = gateTables<Gate, F>(8, rng);
    TableSnark<F, Gate> snark(8, 99);
    auto proof = snark.prove(tables, {});
    std::swap(proof.open_a, proof.open_b);
    std::swap(proof.va, proof.vb);
    EXPECT_FALSE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, PublicInputsBindProof)
{
    using Gate = typename TypeParam::Gate;
    using F = typename TypeParam::F;
    Rng rng(8);
    auto tables = gateTables<Gate, F>(8, rng);
    TableSnark<F, Gate> snark(8, 99);
    std::vector<F> pub{F::fromUint(123)};
    auto proof = snark.prove(tables, pub);
    EXPECT_TRUE(snark.verify(proof, pub));
    std::vector<F> other{F::fromUint(124)};
    EXPECT_FALSE(snark.verify(proof, other));
}

TYPED_TEST(SnarkT, DifferentSeedsIncompatible)
{
    // The encoder seed is a public parameter; a proof under one seed
    // must not verify under another (different code, different columns).
    using Gate = typename TypeParam::Gate;
    using F = typename TypeParam::F;
    Rng rng(9);
    auto tables = gateTables<Gate, F>(8, rng);
    TableSnark<F, Gate> prover_side(8, 99);
    TableSnark<F, Gate> verifier_side(8, 100);
    auto proof = prover_side.prove(tables, {});
    EXPECT_FALSE(verifier_side.verify(proof, {}));
}

TYPED_TEST(SnarkT, AllZeroTablesProveAndVerify)
{
    // Padding-only tables (0 * 0 = 0 everywhere) are valid.
    using Gate = typename TypeParam::Gate;
    using F = typename TypeParam::F;
    ConstraintTables<F> tables;
    tables.n_vars = 6;
    tables.a.assign(64, F::zero());
    tables.b.assign(64, F::zero());
    tables.c.assign(64, F::zero());
    TableSnark<F, Gate> snark(6, 99);
    auto proof = snark.prove(tables, {});
    EXPECT_TRUE(snark.verify(proof, {}));
}

TYPED_TEST(SnarkT, ProofDoesNotReplayUnderTheOtherGate)
{
    // Same wire shape, different transcript domain and gate: a proof
    // moved into the other gate's proof type must not verify there.
    using Gate = typename TypeParam::Gate;
    using F = typename TypeParam::F;
    using Other =
        std::conditional_t<std::is_same_v<Gate, MulGate>, Pow4Gate, MulGate>;
    Rng rng(10);
    auto tables = gateTables<Gate, F>(8, rng);
    TableSnark<F, Gate> snark(8, 99);
    TableSnark<F, Other> other(8, 99);
    auto proof = snark.prove(tables, {});
    typename Other::template Proof<F> moved;
    static_cast<TableProofBody<F> &>(moved) = proof;
    moved.*Other::template kSumcheck<F> = proof.*Gate::template kSumcheck<F>;
    EXPECT_FALSE(other.verify(moved, {}));
}

} // namespace
} // namespace bzk
