// Package analysis is paretolint: a suite of project-invariant static
// analyzers for this repository, in the modular per-package style of
// golang.org/x/tools/go/analysis (whole-program passes are overkill
// here; per-function statement order plus package-local facts suffice).
// The module vendors no third-party code, so the package carries its own
// minimal analyzer framework: an Analyzer/Pass/Diagnostic core, a
// go list + go/types loader for standalone runs, and the cmd/go vet
// "unitchecker" config protocol so cmd/paretolint works as a
// go vet -vettool.
//
// The five analyzers turn conventions that previously lived only in
// docs and review comments into build failures:
//
//   - walbeforeapply: exported mutations of a WAL-owning type (one with
//     an appendWAL method) must append to the WAL before touching engine
//     or monitor state. Read paths opt out with //paretomon:nowal; a
//     helper's writes to one field its callers undo on a failed append
//     are declared with //paretomon:tentative <field> (assignments to
//     the field and calls of its methods).
//   - sentinelerr: no ==/!= comparisons against declared error
//     sentinels (use errors.Is), and no fmt.Errorf that stringifies an
//     error without wrapping anything (%w or a declared sentinel).
//   - lockdiscipline: every mu.Lock/RLock is released on all paths, and
//     no method re-enters a lock its caller already holds (the
//     recursive-RWMutex deadlock class).
//   - ctxhttp: the partition/replica/server packages may not build
//     context-free HTTP requests — retry budgets and lease fences
//     propagate only through NewRequestWithContext.
//   - hotpathalloc: functions marked //paretomon:hotpath may not
//     allocate maps, grow fresh local slices, call fmt/reflect,
//     encoding/json, sort.Slice or time.Now, box integers into
//     interfaces, or acquire mutexes.
//
// See docs/ANALYSIS.md for the full contract of each analyzer and how
// to run paretolint locally.
package analysis
