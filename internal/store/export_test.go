package store

import arcs "arcs/internal/core"

// ShardIndex exposes the key→shard mapping to the external differential
// tests.
func ShardIndex(k arcs.HistoryKey) int {
	var buf [arcs.CanonicalKeyLen]byte
	return shardOf(k.AppendCanonical(buf[:0]))
}
