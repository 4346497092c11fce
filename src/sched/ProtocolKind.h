#ifndef BZK_SCHED_PROTOCOLKIND_H_
#define BZK_SCHED_PROTOCOLKIND_H_

/**
 * @file
 * The protocol-kind abstraction: which proving protocol a task runs.
 *
 * Every layer that carries tasks — the scheduler, the durable journal,
 * the wire protocol, the CLI — tags them with a ProtocolKind so one
 * batch can mix protocols with different module cost ratios. The enum
 * values are wire/journal-stable: they are serialized as a single byte
 * in journal task records (body version 2) and in Submit messages
 * (wire version 2), so existing values must never be renumbered.
 */

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>

namespace bzk::sched {

/** Which proving protocol a task runs. Byte-stable on wire and disk. */
enum class ProtocolKind : uint8_t {
    /**
     * The legacy BatchZK workload: Brakedown-style table commitment
     * plus the cubic constraint sum-check (paper Fig. 7).
     */
    TableCommit = 0,
    /**
     * HyperPlonk-style high-degree custom gate: the same tensor-PCS
     * commitments, but the constraint sum-check proves the degree-5
     * gate identity a^4*b - c = 0, giving degree-6 round polynomials
     * and a sum-check-dominated module cost mix.
     */
    HighDegreeGate = 1,
};

/** Number of protocol kinds (for per-kind tables). */
constexpr size_t kNumProtocolKinds = 2;

/** Stable display name ("table-commit", "high-degree-gate"). */
inline const char *
protocolKindName(ProtocolKind kind)
{
    constexpr const char *kNames[] = {"table-commit", "high-degree-gate"};
    static_assert(std::size(kNames) == kNumProtocolKinds);
    auto i = static_cast<size_t>(kind);
    return i < kNumProtocolKinds ? kNames[i] : "?";
}

/** Metric-safe name ("table_commit", "high_degree_gate"). */
inline const char *
protocolKindMetricName(ProtocolKind kind)
{
    constexpr const char *kNames[] = {"table_commit", "high_degree_gate"};
    static_assert(std::size(kNames) == kNumProtocolKinds);
    auto i = static_cast<size_t>(kind);
    return i < kNumProtocolKinds ? kNames[i] : "unknown";
}

/** Decode a wire/journal byte; nullopt for unknown kinds. */
inline std::optional<ProtocolKind>
protocolKindFromByte(uint8_t byte)
{
    if (byte >= kNumProtocolKinds)
        return std::nullopt;
    return static_cast<ProtocolKind>(byte);
}

} // namespace bzk::sched

#endif // BZK_SCHED_PROTOCOLKIND_H_
