// Package storage is the durability subsystem behind the public
// Monitor: a pluggable Store interface (append WAL records, write/load
// snapshots, prune obsolete files) with a file-backed implementation
// (length-prefixed, CRC-checked binary WAL segments plus atomically
// renamed snapshot files) and an in-memory implementation for tests.
//
// The paper (Sultana & Li, EDBT 2018) treats the monitor as an
// in-memory streaming operator; persistence is an engineering extension
// for running it as a long-lived service. The design follows from the
// paper's own structure:
//
//   - The engines are deterministic functions of the ingestion history
//     (Algs. 1–5 mutate frontiers in a fixed scan order), so a
//     write-ahead log of the raw inputs — objects (Sec. 3) and online
//     preference-tuple additions — is a complete recovery story on its
//     own: replaying the log through a freshly built engine reproduces
//     every frontier, buffer, and work counter exactly.
//   - Replay cost grows with the stream, so a snapshot captures the
//     engine-facing state at one log position: the interned attribute
//     domains (Sec. 3's categorical values), the object name table, the
//     per-user and per-cluster Pareto frontiers P_c / P_U (Secs. 4–6),
//     the sliding window and Pareto frontier buffers PB (Sec. 7),
//     the cluster membership (Sec. 5, verified against the re-clustered
//     community on restore), the applied online preference updates, and
//     the comparison counters (Sec. 8's measurements).
//   - Recovery loads the newest readable snapshot and replays only the
//     WAL tail behind it. Restored state is byte-for-byte equivalent to
//     an uninterrupted run: frontiers keep their scan order, so even
//     the comparison counts of future arrivals are unchanged.
//
// Snapshot state is keyed by the shardable units (users and clusters),
// never by worker shards, so a monitor may be restored under a different
// WithWorkers setting than it was snapshotted under.
//
// See docs/PERSISTENCE.md for the exact on-disk byte layout, the
// corruption-handling policy, and an operations walkthrough.
package storage
