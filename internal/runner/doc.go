// Package runner is the repository's generic experiment engine: it
// takes a matrix of independent jobs (e.g. mitigation x NRH x PaCRAM
// config x workload), fans them out over a bounded worker pool, caches
// completed results in a pluggable result store, and streams progress
// to the caller. Every sweep driver in internal/exp and
// internal/scenario and the examples execute their simulation and
// characterization cells through it; the paper's claims (exp.Takeaways,
// cmd/artifact) read cells those drivers planned.
//
// # Determinism
//
// Results are bit-identical at any worker count, including 1. The
// engine guarantees this by construction rather than by convention:
//
//   - Jobs share no state. A job receives only its Ctx and whatever
//     its closure captured at planning time; the engine never passes
//     information between jobs.
//
//   - Each job's RNG seed is derived deterministically from the
//     engine's base seed and the job's key (Ctx.Seed), never from
//     scheduling order, worker identity, or time. Two runs with the
//     same base seed and key always observe the same Ctx.Seed.
//
//   - Results come back in job order (results[i] is jobs[i]'s), so
//     assembly order is the caller's loop order, not completion order.
//     A planner keeps each cell's job index (Matrix.Add returns it)
//     and reads the result by index, with no lookup by key.
//
// Callers may ignore Ctx.Seed and capture a seed of their own: paired
// experiments (a baseline and a treatment that must see identical
// random workload streams) deliberately run every cell at the same
// seed, which is equally deterministic. Ctx.Seed exists for job
// matrices whose cells must be statistically independent instead.
//
// # Caching
//
// With Options.Store set, a completed job's result is stored as a
// JSON envelope keyed by a SHA-256 hash of the options fingerprint,
// the base seed, the job key, and the build identity: the model
// identity (modelid.Model, a generated hash of the sources of the
// packages that decide a result), the CPU architecture and the Go
// version. A later run with the same tuple loads the stored result
// and skips the computation, whichever binary computed it; any change
// to the fingerprint (scale, seed) or to the model misses the cache
// rather than replaying results computed by a different model. The
// Store interface is pluggable — a size-bounded in-memory LRU
// (NewMemStore), the classic one-file-per-cell disk layout
// (NewDiskStore, byte-compatible with cache directories written by
// every earlier release), a remote pacramd cache origin over HTTP
// (NewRemoteStore), or a tiered stack of them with read-through
// promotion and write-back (NewTiered). OpenStore is the one place a
// stack is composed (mem → disk → remote); a command opens one per
// process and runs every experiment on it, so cells one experiment
// computed are hits for the next. The guarantees are
// backend-independent: entries are self-describing (key and
// fingerprint travel with the result and are re-validated on load,
// see GetCell), so corrupt or mismatched entries are treated as
// misses and rewritten, never replayed. Disk entries are written
// atomically (temp file + rename), so concurrent processes sharing a
// cache directory at worst duplicate work, never corrupt it. A
// failing store operation (disk full mid-run, an unreachable remote
// tier) degrades to one warning per failure via Options.OnWarning (or
// Progress), never to a lost result. The conformance suite in
// runner/storetest pins these semantics for every backend.
//
// A planner whose jobs always run under one fingerprint and seed
// computes each cell's store address once per plan (Matrix.Address
// sets Job.Addr), not once per run; a job without one has its address
// derived from its key on every run.
//
// The store holds whatever the job returned, so cached and computed
// results are interchangeable only if job result types marshal to
// JSON losslessly (exported fields, no NaN/Inf) — true for all result
// types in this repository.
//
// The memory tier also keeps, beside each entry's bytes, the value
// GetCell decoded from them after validating them; a later hit on the
// same bytes reuses it instead of decoding the JSON again. Every such
// hit returns the same value — its slices included — just as every
// waiter coalesced onto one computation does, so results must be
// treated as immutable once Run returns them.
//
// # Failure
//
// A failing job does not deadlock or abandon the pool: dispatch stops,
// in-flight jobs drain, and Run returns the failed job's error
// (lowest job index wins when several fail, keeping the reported
// error deterministic too).
//
// # Shared pools and coalescing
//
// Run executes on a transient pool private to the call. Long-lived
// callers — the sweep service above all — construct one Pool and
// route every Run invocation through it: the pool's slot count then
// bounds actual computation across all concurrent invocations, and
// identical cells asked for by overlapping invocations are computed
// once ("singleflight" on the cell's content address, the same hash
// the result store uses). With a shared Store the guarantee is strict:
// the flight owner stores its result before releasing waiters, so a
// cell is computed at most once per (store, model) no matter how many
// overlapping sweeps arrive concurrently. Options.OnEvent streams one
// Event per finished cell — computed, cached, coalesced, remote or
// failed (Event.Outcome) — which is what the service forwards to
// clients over SSE. The same record feeds the pool's metrics, the
// cell's span tree and the progress line.
package runner
