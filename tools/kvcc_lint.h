// kvcc-lint — the project's determinism & scratch-discipline static checker.
//
// The system's load-bearing guarantee — components, cuts, hierarchies, and
// stats byte-identical across thread counts and batch sizes — is enforced
// dynamically by the property tests and the sanitizer CI matrix.
// This linter makes the most common ways of *breaking* that guarantee a
// checkable property of the source itself, so a violation fails the analysis
// CI stage before a single test runs.
//
// The checker is a token-level pass (comments and literals stripped, brace /
// angle-bracket tracking, no preprocessor) rather than a full AST walk: the
// container ships no libclang, and the rules below are deliberately local
// enough that token evidence suffices. Where the rule cannot be decided
// statically, the site must carry a `// kvcc-lint: <directive>` justification
// and the justification itself is part of the reviewed source.
//
// Rule families (see docs/ANALYSIS.md for the full rationale):
//   R1 unordered-iteration  range-for over unordered_map/unordered_set.
//                           Iteration order is unspecified and varies across
//                           libstdc++ versions and address layouts, so any
//                           result- or stats-affecting loop over one is a
//                           determinism bug. Silence with
//                           `// kvcc-lint: ordered-independent` once the loop
//                           body is argued order-independent (pure
//                           accumulation, commutative merge, ...).
//   R2 nondeterminism       rand()/srand()/time()/clock()/std::random_device/
//                           std::mt19937/... and pointer-valued container
//                           keys inside src/kvcc/, src/flow/, src/graph/.
//                           Randomness flows only through util/random.h with
//                           seeds threaded from options; pointer keys hash by
//                           address and re-order per run.
//   R3 no-alloc             a function annotated `// kvcc-lint: no-alloc`
//                           must not allocate: new/make_unique/make_shared/
//                           malloc/resize/reserve/... are flagged outright,
//                           and growth calls (push_back/emplace_back/insert/
//                           emplace/append) need a per-line
//                           `// kvcc-lint: reserved` asserting capacity was
//                           pre-reserved. The static twin of the memhook
//                           assertions in memory_tracker_test.
//   R4 cancellation-blind   a function definition that accepts a CancelToken
//                           must use it (poll it, forward it, or store it) —
//                           an accepted-but-ignored token is a silently
//                           uncancellable path. Silence with
//                           `// kvcc-lint: cancel-ok` when ignoring the token
//                           is intended (e.g. a leaf too short to poll).
//   R0 bad-annotation       an unknown `kvcc-lint:` directive is itself an
//                           error, so a typo cannot silently disable a rule.
#ifndef KVCC_TOOLS_KVCC_LINT_H_
#define KVCC_TOOLS_KVCC_LINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kvcc {
namespace lint {

/// \brief Identifies the rule family a finding belongs to.
enum class Rule : std::uint8_t {
  kBadAnnotation,       ///< R0: unknown `kvcc-lint:` directive.
  kUnorderedIteration,  ///< R1: range-for over an unordered container.
  kNondeterminism,      ///< R2: wall-clock/libc randomness or pointer keys.
  kNoAlloc,             ///< R3: allocation inside a `no-alloc` function.
  kCancellationBlind,   ///< R4: accepted CancelToken never used.
};

/// \brief Short stable identifier for a rule ("R1-unordered-iteration").
const char* RuleId(Rule rule);

/// \brief One-line human description of what a rule enforces.
const char* RuleDescription(Rule rule);

/// \brief A single lint violation at a source location.
struct Finding {
  std::string path;     ///< File the finding is in (as given to the linter).
  int line = 0;         ///< 1-based line number.
  Rule rule = Rule::kBadAnnotation;  ///< Rule family that fired.
  std::string message;  ///< What was found and how to fix or justify it.

  /// \brief Renders as `path:line: [rule-id] message` for tooling and CI.
  std::string ToString() const;
};

/// \brief Which rule families run. All enabled by default.
struct LintConfig {
  bool r1_unordered_iteration = true;  ///< Toggle R1.
  bool r2_nondeterminism = true;       ///< Toggle R2.
  bool r3_no_alloc = true;             ///< Toggle R3.
  bool r4_cancellation_blind = true;   ///< Toggle R4.

  /// Path fragments R2 is restricted to (determinism-critical layers). A
  /// file whose path contains any fragment is in scope. Empty = everywhere.
  std::vector<std::string> r2_paths = {"src/kvcc/", "src/flow/",
                                       "src/graph/"};

  /// Extra identifiers treated as unordered containers by R1, on top of the
  /// names the linter harvests from declarations in the scanned sources.
  std::vector<std::string> extra_unordered_names;
};

/// \brief Lints one in-memory translation unit.
///
/// \param path Path the findings are reported under; also what R2's path
///   restriction matches against.
/// \param source Full file contents.
/// \param config Rule toggles; defaults enable everything.
/// \return Findings in line order (empty means the file is clean).
std::vector<Finding> LintSource(const std::string& path,
                                const std::string& source,
                                const LintConfig& config = {});

/// \brief Lints files on disk; directories recurse into `*.cc` / `*.h`.
///
/// Files are visited in sorted path order so output is deterministic. To
/// let R1 see container members declared in headers but iterated in other
/// files, all inputs are harvested for unordered declarations before any
/// file is checked.
/// \param paths Files or directories to lint.
/// \param config Rule toggles; defaults enable everything.
/// \return Findings ordered by (path, line).
std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               const LintConfig& config = {});

}  // namespace lint
}  // namespace kvcc

#endif  // KVCC_TOOLS_KVCC_LINT_H_
