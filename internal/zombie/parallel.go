package zombie

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"

	"zombiescope/internal/pipeline"
)

// This file holds the shard routing and error shaping shared by the
// history builder (history.go) and the lifespan tracker (lifespan.go):
// archives are decoded in record-aligned chunks by the pipeline engine,
// extracted events are routed to PeerID-hashed (or prefix-hashed) shards,
// each shard builds its slice of the state lock-free in stream order, and
// the shards merge into the same canonical structures for any shard count.

// shardOfPeer routes a peer to its shard. FNV-1a keeps the assignment
// stable across processes (no per-run hash seed), which the differential
// harness and golden tests rely on.
func shardOfPeer(peer PeerID, n int) int {
	h := fnv.New64a()
	h.Write([]byte(peer.Collector))
	var b [20]byte
	b[0] = byte(peer.AS >> 24)
	b[1] = byte(peer.AS >> 16)
	b[2] = byte(peer.AS >> 8)
	b[3] = byte(peer.AS)
	a16 := peer.Addr.As16()
	copy(b[4:], a16[:])
	h.Write(b[:])
	return int(h.Sum64() % uint64(n))
}

// shardOfPrefix routes a prefix to its shard.
func shardOfPrefix(p netip.Prefix, n int) int {
	h := fnv.New64a()
	a16 := p.Addr().As16()
	h.Write(a16[:])
	h.Write([]byte{byte(p.Bits())})
	return int(h.Sum64() % uint64(n))
}

// wrapFileError rewraps a pipeline position error into the history
// builder's error shape, which names the collector.
func wrapFileError(err error) error {
	var fe *pipeline.FileError
	if errors.As(err, &fe) {
		return fmt.Errorf("zombie: collector %s: %w", fe.Name, fe.Err)
	}
	return err
}
