#ifndef BZK_CORE_PROTOCOLS_H_
#define BZK_CORE_PROTOCOLS_H_

/**
 * @file
 * The protocol table: every decision that depends on a task's
 * ProtocolKind, as one row per kind. The durable service, the network
 * executor, the scheduler's work model and the CLI look a row up and
 * call through it instead of branching on the kind, so adding a
 * protocol kind means one gate struct (see core/TableSnark.h) plus one
 * row in core/Protocols.cpp.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/PipelinedSystem.h"
#include "core/TableSnark.h"
#include "exec/ExecContext.h"
#include "ff/Fields.h"
#include "sched/ProtocolKind.h"
#include "util/Rng.h"

namespace bzk {

/** What a decoded proof carries, for reports (`batchzk info`). */
struct ProofShape
{
    /** Table log-size the proof commits to. */
    unsigned n_vars = 0;
    /** Gate sum-check rounds. */
    size_t rounds = 0;
    /** Evaluations per round (the gate degree + 1). */
    size_t evals_per_round = 0;
    /** Opened columns per table. */
    size_t columns = 0;
};

/** One protocol kind's row. Every entry is a plain function. */
struct Protocol
{
    sched::ProtocolKind kind;
    /** Leading byte of the kind's serialized proofs. */
    uint8_t proof_tag;
    /** Satisfied instance with 2^n_vars rows, deterministic in @p rng. */
    ConstraintTables<Fr> (*instance)(unsigned n_vars, Rng &rng);
    /**
     * Prove @p tables and serialize the proof; nullopt when @p hook
     * abandoned it at a stage boundary. @p exec may be nullptr.
     */
    std::optional<std::vector<uint8_t>> (*prove)(
        const ConstraintTables<Fr> &tables, uint64_t seed,
        size_t column_openings, const exec::ExecContext *exec,
        const ProveStageHook &hook);
    /** Decode and verify a serialized proof; false when malformed. */
    bool (*verify)(std::span<const uint8_t> bytes, unsigned n_vars,
                   uint64_t seed, size_t column_openings,
                   std::span<const Fr> public_inputs);
    /** Decode a serialized proof's shape; nullopt when malformed. */
    std::optional<ProofShape> (*shape)(std::span<const uint8_t> bytes);
    /** Simulated per-proof work model. */
    SystemWorkModel (*work_model)(unsigned n_vars, uint64_t seed);
};

/** The row of @p kind. */
const Protocol &protocol(sched::ProtocolKind kind);

/** The row whose proofs lead with @p tag; nullptr for none. */
const Protocol *protocolByTag(uint8_t tag);

} // namespace bzk

#endif // BZK_CORE_PROTOCOLS_H_
