// Package resource models FPGA hardware resources and the device catalog of
// the heterogeneous cluster evaluated in the paper (3x Xilinx XCVU37P and
// 1x XCKU115). A resource Vector counts the five resource classes that the
// paper's tables report: LUTs, DFFs, BRAM, URAM and DSP slices.
//
// Everything downstream — the soft-block abstraction, the ViTAL-like
// virtual-block compiler and the runtime manager — speaks in these vectors.
package resource

import (
	"errors"
	"fmt"
)

// Kind identifies one FPGA resource class.
type Kind int

// The five resource classes tracked throughout the framework.
const (
	LUT Kind = iota
	DFF
	BRAMKb // block RAM capacity in kilobits
	URAMKb // UltraRAM capacity in kilobits
	DSP
)

// Kinds lists every resource class in canonical order.
var Kinds = [...]Kind{LUT, DFF, BRAMKb, URAMKb, DSP}

// String returns the conventional short name of the resource class.
func (k Kind) String() string {
	switch k {
	case LUT:
		return "LUT"
	case DFF:
		return "DFF"
	case BRAMKb:
		return "BRAM(Kb)"
	case URAMKb:
		return "URAM(Kb)"
	case DSP:
		return "DSP"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Vector is a count of resources per class. The zero value is an empty
// vector, ready to use.
type Vector struct {
	LUTs   int64
	DFFs   int64
	BRAMKb int64 // kilobits
	URAMKb int64 // kilobits
	DSPs   int64
}

// Get returns the count for one resource class.
func (v Vector) Get(k Kind) int64 {
	switch k {
	case LUT:
		return v.LUTs
	case DFF:
		return v.DFFs
	case BRAMKb:
		return v.BRAMKb
	case URAMKb:
		return v.URAMKb
	case DSP:
		return v.DSPs
	}
	return 0
}

// Add returns v + o element-wise.
func (v Vector) Add(o Vector) Vector {
	return Vector{
		LUTs:   v.LUTs + o.LUTs,
		DFFs:   v.DFFs + o.DFFs,
		BRAMKb: v.BRAMKb + o.BRAMKb,
		URAMKb: v.URAMKb + o.URAMKb,
		DSPs:   v.DSPs + o.DSPs,
	}
}

// Scale returns v * n element-wise.
func (v Vector) Scale(n int64) Vector {
	return Vector{
		LUTs:   v.LUTs * n,
		DFFs:   v.DFFs * n,
		BRAMKb: v.BRAMKb * n,
		URAMKb: v.URAMKb * n,
		DSPs:   v.DSPs * n,
	}
}

// Div returns v / n element-wise, each element rounded toward zero.
func (v Vector) Div(n int64) Vector {
	return Vector{
		LUTs:   v.LUTs / n,
		DFFs:   v.DFFs / n,
		BRAMKb: v.BRAMKb / n,
		URAMKb: v.URAMKb / n,
		DSPs:   v.DSPs / n,
	}
}

// String renders the vector in table form, e.g.
// "610000 LUT, 659000 DFF, 51500 BRAM(Kb), 22500 URAM(Kb), 7517 DSP".
func (v Vector) String() string {
	return fmt.Sprintf("%d LUT, %d DFF, %d BRAM(Kb), %d URAM(Kb), %d DSP",
		v.LUTs, v.DFFs, v.BRAMKb, v.URAMKb, v.DSPs)
}

// ErrUnknownDevice is returned by LookupDevice for names not in the catalog.
var ErrUnknownDevice = errors.New("resource: unknown device")

// Device describes one FPGA type in the heterogeneous cluster.
type Device struct {
	// Name is the Xilinx part name, e.g. "XCVU37P".
	Name string
	// Capacity is the total usable resources of the part.
	Capacity Vector
	// ClockMHz is the frequency achieved by the accelerator and virtual
	// blocks on this part in the paper's evaluation (Tables 2-3).
	ClockMHz float64
	// HasURAM reports whether the part provides UltraRAM.
	HasURAM bool
	// DRAMBandwidthGBs is the on-board DRAM bandwidth available to one
	// accelerator, in GB/s.
	DRAMBandwidthGBs float64
}

// Catalog of the two device types used in the paper's custom cluster.
// Capacities are the published totals for the parts:
//
//	XCVU37P : 1304k LUTs, 2607k FFs, 70.9 Mb BRAM, 270 Mb URAM, 9024 DSPs
//	XCKU115 : 663k LUTs, 1326k FFs, 75.9 Mb BRAM, no URAM, 5520 DSPs
//
// Frequencies come from Tables 2-3 (400 MHz / 300 MHz).
var (
	XCVU37P = Device{
		Name: "XCVU37P",
		Capacity: Vector{
			LUTs:   1303680,
			DFFs:   2607360,
			BRAMKb: 70912,  // 70.9 Mb
			URAMKb: 276480, // 270 Mb
			DSPs:   9024,
		},
		ClockMHz:         400,
		HasURAM:          true,
		DRAMBandwidthGBs: 19.2,
	}
	XCKU115 = Device{
		Name: "XCKU115",
		Capacity: Vector{
			LUTs:   663360,
			DFFs:   1326720,
			BRAMKb: 75900, // 75.9 Mb
			URAMKb: 0,
			DSPs:   5520,
		},
		ClockMHz:         300,
		HasURAM:          false,
		DRAMBandwidthGBs: 19.2,
	}
)

// Devices lists the catalog in canonical order (largest first).
var Devices = []Device{XCVU37P, XCKU115}

// LookupDevice returns the catalog entry for name.
func LookupDevice(name string) (Device, error) {
	for _, d := range Devices {
		if d.Name == name {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("%w: %q", ErrUnknownDevice, name)
}

// ClusterSpec describes the composition of a physical cluster as device
// name -> count.
type ClusterSpec map[string]int

// PaperCluster is the custom-built cluster from §4.2: three XCVU37P and one
// XCKU115 attached over PCIe with a secondary bidirectional ring.
func PaperCluster() ClusterSpec {
	return ClusterSpec{XCVU37P.Name: 3, XCKU115.Name: 1}
}
