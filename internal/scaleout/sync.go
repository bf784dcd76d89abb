// Package scaleout implements the paper's optimization for scale-out
// acceleration (§2.3): instead of splitting one accelerator across FPGAs,
// the accelerator is scaled down into smaller instances (fewer data
// processing units), one per FPGA; a template synchronization module traps
// DRAM reads/writes to predefined addresses to move vectors over the
// inter-FPGA network and to realize barrier synchronization (Fig. 8); and
// custom tools insert the communication instructions and reorder the
// program under dependency constraints so communication overlaps
// computation.
package scaleout

import (
	"errors"
	"fmt"
	"sync"

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
// RecvAddr blocks until all peers' shards arrive (barrier synchronization
// for an in-order processor) and returns the full vector assembled in
// device order, the local shard placed by the index register. Both trapped
// requests are invalidated against the real DRAM to preserve functional
// correctness.
//
// The module's parameters — buffer width, the predefined addresses and the
// index register — are fixed at offline compilation time (§2.3), i.e. at
// construction.
type SyncModule struct {
	inner accel.DRAM

	sendAddr, recvAddr int
	shardWords         int
	// index is the position of the local shard in the assembled vector,
	// n the number of devices in the group.
	index, n int

	outs    []chan<- []fp16.Num // one per peer, indexed by peer id (own slot nil)
	ins     []<-chan []fp16.Num
	lastOwn []fp16.Num
	abort   *abortState

	stats SyncStats
}

// abortState propagates a peer failure so barrier waits unblock instead of
// deadlocking when one device dies mid-chain.
type abortState struct {
	once sync.Once
	ch   chan struct{}
}

func newAbortState() *abortState { return &abortState{ch: make(chan struct{})} }

func (a *abortState) abort() { a.once.Do(func() { close(a.ch) }) }

// ErrPeerAborted is returned from a blocked send/receive when the peer
// accelerator aborted its chain.
var ErrPeerAborted = errors.New("scaleout: peer accelerator aborted")

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
	// chans[from][to], capacity 1: every device sends before it receives,
	// so the all-send phase must not block (the symmetric-send deadlock).
	chans := make([][]chan []fp16.Num, n)
	for i := range chans {
		chans[i] = make([]chan []fp16.Num, n)
		for j := range chans[i] {
			if i != j {
				chans[i][j] = make(chan []fp16.Num, 1)
			}
		}
	}
	shared := newAbortState()
	out := make([]*SyncModule, n)
	for i := 0; i < n; i++ {
		outs := make([]chan<- []fp16.Num, n)
		ins := make([]<-chan []fp16.Num, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			outs[j] = chans[i][j]
			ins[j] = chans[j][i]
		}
		out[i] = &SyncModule{
			inner:    inners[i],
			sendAddr: cfg.SendAddr, recvAddr: cfg.RecvAddr,
			shardWords: cfg.ShardWords, index: i, n: n,
			outs: outs, ins: ins, abort: shared,
		}
	}
	return out, nil
}

// Stats returns the traffic counters.
func (s *SyncModule) Stats() SyncStats { return s.stats }

// Abort unblocks every device's barrier waits; further sync accesses fail
// with ErrPeerAborted.
func (s *SyncModule) Abort() { s.abort.abort() }

// WriteWords traps writes to the send address (broadcasting the shard to
// every peer and invalidating the DRAM write) and passes everything else
// through.
func (s *SyncModule) WriteWords(addr int, vals []fp16.Num) error {
	if addr != s.sendAddr {
		return s.inner.WriteWords(addr, vals)
	}
	if len(vals) != s.shardWords {
		return fmt.Errorf("scaleout: send of %d words, module configured for %d", len(vals), s.shardWords)
	}
	cp := append([]fp16.Num{}, vals...)
	s.lastOwn = cp
	for j, out := range s.outs {
		if j == s.index || out == nil {
			continue
		}
		select {
		case out <- cp:
		case <-s.abort.ch:
			return ErrPeerAborted
		}
		s.stats.WordsSent += int64(len(cp))
	}
	s.stats.Sends++
	return nil
}

// ReadWords traps reads from the receive address: it blocks until every
// peer's shard arrives (barrier) and assembles the full vector.
func (s *SyncModule) ReadWords(addr, n int) ([]fp16.Num, error) {
	if addr != s.recvAddr {
		return s.inner.ReadWords(addr, n)
	}
	if n != s.n*s.shardWords {
		return nil, fmt.Errorf("scaleout: receive of %d words, want %d", n, s.n*s.shardWords)
	}
	if s.lastOwn == nil {
		return nil, errors.New("scaleout: receive before any send (no local shard buffered)")
	}
	out := make([]fp16.Num, 0, n)
	for j := 0; j < s.n; j++ {
		if j == s.index {
			out = append(out, s.lastOwn...)
			continue
		}
		var shard []fp16.Num
		select {
		case shard = <-s.ins[j]:
		case <-s.abort.ch:
			return nil, ErrPeerAborted
		}
		s.stats.WordsReceived += int64(len(shard))
		out = append(out, shard...)
	}
	s.stats.Receives++
	return out, nil
}
