// Package scaleout implements the paper's optimization for scale-out
// acceleration (§2.3): instead of splitting one accelerator across FPGAs,
// the accelerator is scaled down into smaller instances (fewer data
// processing units), one per FPGA; a template synchronization module traps
// DRAM reads/writes to predefined addresses to move vectors over the
// inter-FPGA network and to realize barrier synchronization (Fig. 8); and
// custom tools insert the communication instructions and reorder the
// program under dependency constraints so communication overlaps
// computation. A group runs functionally in lockstep on its caller's
// goroutine (ScaledGroup.Run): the barrier is a fixed schedule, so a
// program that breaks it fails instead of hanging.
package scaleout

import (
	"errors"
	"fmt"
	"slices"

	"mlvfpga/internal/accel"
	"mlvfpga/internal/fp16"
)

// SyncStats counts the template module's traffic.
type SyncStats struct {
	// Sends/Receives are trapped transfers.
	Sends, Receives int
	// WordsSent/WordsReceived count float16 words moved.
	WordsSent, WordsReceived int64
}

// SyncModule is the parameterized template module of Fig. 8b, interposed
// on an accelerator's DRAM port. A write to SendAddr forwards the device's
// shard to every peer accelerator over the inter-FPGA network; a read from
// RecvAddr is the barrier of an in-order processor: it takes one shard from
// every device, its own included, and returns the full vector assembled in
// device order, the local shard placed by the index register. Both trapped
// requests are invalidated against the real DRAM to preserve functional
// correctness.
//
// The network is a FIFO per (from, to) device pair, shared by the group. A
// receive that finds one of them empty fails naming that device; it never
// waits, so a schedule that runs a receive before its peers' sends
// (ScaledGroup.Run does not) is an error, not a deadlock.
//
// The module's parameters — buffer width, the predefined addresses and the
// index register — are fixed at offline compilation time (§2.3), i.e. at
// construction.
type SyncModule struct {
	inner accel.DRAM

	sendAddr, recvAddr int
	shardWords         int
	// index is the position of the local shard in the assembled vector.
	index int

	// links[from][to] holds the shards device from sent that device to has
	// not yet received, links[i][i] the device's own.
	links [][][][]fp16.Num

	stats SyncStats
}

// Config parameterizes the sync modules of one group.
type Config struct {
	// SendAddr and RecvAddr are the predefined (out-of-range) DRAM word
	// addresses the module traps.
	SendAddr, RecvAddr int
	// ShardWords is the exchanged shard length: each scaled-down
	// accelerator's 1/n share of the hidden dimension.
	ShardWords int
}

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.ShardWords <= 0 {
		return fmt.Errorf("scaleout: ShardWords = %d", c.ShardWords)
	}
	if c.SendAddr == c.RecvAddr {
		return errors.New("scaleout: send and receive addresses collide")
	}
	return nil
}

// NewSyncGroup interposes sync modules over n >= 2 accelerators' DRAM
// ports, connected over the inter-FPGA network. Device i holds shard i of
// every exchanged vector (the index registers are configured accordingly).
func NewSyncGroup(inners []accel.DRAM, cfg Config) ([]*SyncModule, error) {
	n := len(inners)
	if n < 2 {
		return nil, fmt.Errorf("scaleout: sync group needs >= 2 devices, got %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	links := make([][][][]fp16.Num, n)
	out := make([]*SyncModule, n)
	for i := range out {
		links[i] = make([][][]fp16.Num, n)
		out[i] = &SyncModule{
			inner:    inners[i],
			sendAddr: cfg.SendAddr, recvAddr: cfg.RecvAddr,
			shardWords: cfg.ShardWords, index: i, links: links,
		}
	}
	return out, nil
}

// Stats returns the traffic counters.
func (s *SyncModule) Stats() SyncStats { return s.stats }

// WriteWords traps writes to the send address (queueing the shard for
// every device, this one included, and invalidating the DRAM write) and
// passes everything else through.
func (s *SyncModule) WriteWords(addr int, vals []fp16.Num) error {
	if addr != s.sendAddr {
		return s.inner.WriteWords(addr, vals)
	}
	if len(vals) != s.shardWords {
		return fmt.Errorf("scaleout: send of %d words, module configured for %d", len(vals), s.shardWords)
	}
	shard := slices.Clone(vals)
	for to, q := range s.links[s.index] {
		s.links[s.index][to] = append(q, shard)
		if to != s.index {
			s.stats.WordsSent += int64(len(shard))
		}
	}
	s.stats.Sends++
	return nil
}

// ReadWordsInto traps reads from the receive address: it takes the oldest
// shard from every device's link and assembles the full vector in dst.
func (s *SyncModule) ReadWordsInto(dst []fp16.Num, addr int) error {
	if addr != s.recvAddr {
		return s.inner.ReadWordsInto(dst, addr)
	}
	if want := len(s.links) * s.shardWords; len(dst) != want {
		return fmt.Errorf("scaleout: receive of %d words, want %d", len(dst), want)
	}
	for from := range s.links {
		if len(s.links[from][s.index]) == 0 {
			return fmt.Errorf("scaleout: device %d received before device %d sent its shard", s.index, from)
		}
	}
	for from := range s.links {
		q := s.links[from][s.index]
		copy(dst[from*s.shardWords:], q[0])
		s.links[from][s.index] = q[1:]
		if from != s.index {
			s.stats.WordsReceived += int64(s.shardWords)
		}
	}
	s.stats.Receives++
	return nil
}
