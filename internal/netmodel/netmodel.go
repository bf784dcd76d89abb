// Package netmodel models the cluster interconnect of the paper's testbed
// (§4.2): FPGAs attach to the host over PCIe and to each other over a
// secondary bidirectional ring network.
//
// The model is analytic: a transfer of B bytes over a path with latency L
// and bandwidth W takes L + B/W. The paper's §4.3 evaluation inserts a
// programmable delay module (counter + FIFO) into the inter-FPGA link to
// sweep added latency; AddedLatency reproduces that knob.
package netmodel

import (
	"errors"
	"fmt"
	"time"
)

// Link is a point-to-point channel with fixed latency and bandwidth.
type Link struct {
	// Latency is the propagation + serialization setup latency per transfer.
	Latency time.Duration
	// BandwidthGBs is the sustained bandwidth in gigabytes per second.
	BandwidthGBs float64
	// AddedLatency models the paper's programmable delay module inserted
	// into the inter-FPGA path for the Fig. 11 sweep.
	AddedLatency time.Duration
}

// ErrBadLink is returned for non-positive bandwidth.
var ErrBadLink = errors.New("netmodel: bandwidth must be positive")

// TransferTime returns the time to move n bytes across the link.
func (l Link) TransferTime(n int64) (time.Duration, error) {
	if l.BandwidthGBs <= 0 {
		return 0, ErrBadLink
	}
	if n < 0 {
		return 0, fmt.Errorf("netmodel: negative transfer size %d", n)
	}
	serialization := time.Duration(float64(n) / (l.BandwidthGBs * 1e9) * float64(time.Second))
	return l.Latency + l.AddedLatency + serialization, nil
}

// DefaultRingLink is the inter-FPGA ring channel: the paper's custom ring
// delivers on the order of a few GB/s with sub-microsecond base latency
// (serial transceiver links between boards).
func DefaultRingLink() Link {
	return Link{Latency: 400 * time.Nanosecond, BandwidthGBs: 3.0}
}

// Ring is a bidirectional ring of n nodes connected by identical links.
type Ring struct {
	n    int
	link Link
}

// NewRing builds a bidirectional ring over n nodes.
func NewRing(n int, link Link) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("netmodel: ring needs at least 1 node, got %d", n)
	}
	if link.BandwidthGBs <= 0 {
		return nil, ErrBadLink
	}
	return &Ring{n: n, link: link}, nil
}

// Nodes returns the ring size.
func (r *Ring) Nodes() int { return r.n }

// Hops returns the hop count of the shortest direction between nodes a and
// b on the bidirectional ring.
func (r *Ring) Hops(a, b int) (int, error) {
	if a < 0 || a >= r.n || b < 0 || b >= r.n {
		return 0, fmt.Errorf("netmodel: node out of range: %d,%d (ring size %d)", a, b, r.n)
	}
	cw := (b - a + r.n) % r.n
	ccw := (a - b + r.n) % r.n
	if ccw < cw {
		return ccw, nil
	}
	return cw, nil
}

// TransferTime returns the time to move n bytes from node a to node b,
// paying the per-hop link latency once per hop but serializing only once
// (cut-through routing). The AddedLatency knob is charged once per
// transfer, matching the paper's single inserted delay module.
func (r *Ring) TransferTime(a, b int, n int64) (time.Duration, error) {
	hops, err := r.Hops(a, b)
	if err != nil {
		return 0, err
	}
	if hops == 0 {
		return 0, nil
	}
	if n < 0 {
		return 0, fmt.Errorf("netmodel: negative transfer size %d", n)
	}
	serialization := time.Duration(float64(n) / (r.link.BandwidthGBs * 1e9) * float64(time.Second))
	return time.Duration(hops)*r.link.Latency + r.link.AddedLatency + serialization, nil
}

// AllGatherTime models the per-step all-gather of a scaled-out deployment
// whose members each contribute shardBytes: every member broadcasts its
// shard while receiving the others'. The modelled time is the worst-case
// member-to-member hop latency plus serialization of the (k-1) incoming
// shards, charged once per step (the sync modules pipeline the two ring
// directions). The control plane uses this to veto depth scale-ups whose
// communication cost would eat the throughput gain.
func (r *Ring) AllGatherTime(members []int, shardBytes int64) (time.Duration, error) {
	if len(members) <= 1 {
		return 0, nil
	}
	if shardBytes < 0 {
		return 0, fmt.Errorf("netmodel: negative shard size %d", shardBytes)
	}
	worst := 0
	for i, a := range members {
		for _, b := range members[i+1:] {
			hops, err := r.Hops(a, b)
			if err != nil {
				return 0, err
			}
			if hops > worst {
				worst = hops
			}
		}
	}
	serialization := time.Duration(float64(shardBytes) * float64(len(members)-1) /
		(r.link.BandwidthGBs * 1e9) * float64(time.Second))
	return time.Duration(worst)*r.link.Latency + r.link.AddedLatency + serialization, nil
}

// WithAddedLatency returns a copy of the ring with the programmable delay
// module set to d.
func (r *Ring) WithAddedLatency(d time.Duration) *Ring {
	link := r.link
	link.AddedLatency = d
	return &Ring{n: r.n, link: link}
}

// Link returns the per-hop link parameters.
func (r *Ring) Link() Link { return r.link }
