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
