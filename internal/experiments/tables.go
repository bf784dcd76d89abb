// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each experiment returns typed rows/series consumed by
// the root benchmarks, `mlv repro`, and EXPERIMENTS.md. Paper reference
// values are embedded so outputs can print side-by-side comparisons.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
)

// Table2Row is one baseline-accelerator implementation result.
type Table2Row struct {
	Name       string
	Device     string
	Tiles      int
	Resources  resource.Vector
	UtilLUT    float64 // fraction of device capacity
	UtilBRAM   float64
	UtilURAM   float64
	UtilDSP    float64
	ClockMHz   float64
	PeakTFLOPS float64

	// Paper values for comparison.
	PaperLUTs       int64
	PaperDSPs       int64
	PaperPeakTFLOPS float64
}

// Table2 reproduces the baseline accelerator implementation results.
func Table2() ([]Table2Row, error) {
	refs := []struct {
		name, device string
		tiles        int
		paperLUTs    int64
		paperDSPs    int64
		paperTFLOPS  float64
	}{
		{"BW-V37", "XCVU37P", 21, 610000, 7517, 36},
		{"BW-K115", "XCKU115", 13, 367000, 5073, 16.7},
	}
	var rows []Table2Row
	for _, r := range refs {
		m, err := hsvital.CalibratedAccelerator(r.device, r.tiles)
		if err != nil {
			return nil, err
		}
		dev, err := resource.LookupDevice(r.device)
		if err != nil {
			return nil, err
		}
		frac := func(n, c int64) float64 {
			if c == 0 {
				return 0
			}
			return float64(n) / float64(c)
		}
		rows = append(rows, Table2Row{
			Name: r.name, Device: r.device, Tiles: r.tiles,
			Resources:  m.Resources,
			UtilLUT:    frac(m.Resources.LUTs, dev.Capacity.LUTs),
			UtilBRAM:   frac(m.Resources.BRAMKb, dev.Capacity.BRAMKb),
			UtilURAM:   frac(m.Resources.URAMKb, dev.Capacity.URAMKb),
			UtilDSP:    frac(m.Resources.DSPs, dev.Capacity.DSPs),
			ClockMHz:   m.ClockMHz,
			PeakTFLOPS: m.PeakTFLOPS,
			PaperLUTs:  r.paperLUTs, PaperDSPs: r.paperDSPs, PaperPeakTFLOPS: r.paperTFLOPS,
		})
	}
	return rows, nil
}

// Table3Row is one virtual-block implementation result.
type Table3Row struct {
	Device          string
	BlocksPerDevice int
	Usable          resource.Vector
	ClockMHz        float64
	PeakTFLOPS      float64

	PaperLUTs       int64
	PaperDSPs       int64
	PaperPeakTFLOPS float64
}

// Table3 reproduces the per-virtual-block implementation results.
func Table3() ([]Table3Row, error) {
	refs := map[string]struct {
		luts, dsps int64
		tflops     float64
	}{
		"XCVU37P": {44900, 576, 3.69},
		"XCKU115": {39900, 552, 2.07},
	}
	var rows []Table3Row
	for _, spec := range hsvital.AllSpecs() {
		ref := refs[spec.Device.Name]
		rows = append(rows, Table3Row{
			Device:          spec.Device.Name,
			BlocksPerDevice: spec.BlocksPerDevice,
			Usable:          spec.BlockUsable,
			ClockMHz:        spec.ClockMHz,
			PeakTFLOPS:      spec.BlockPeakTFLOPS,
			PaperLUTs:       ref.luts, PaperDSPs: ref.dsps, PaperPeakTFLOPS: ref.tflops,
		})
	}
	return rows, nil
}

// Table4Row is one inference-latency comparison.
type Table4Row struct {
	Spec     kernels.LayerSpec
	Device   string
	Fits     bool
	Tiles    int
	Baseline time.Duration
	ThisWork time.Duration
	Overhead float64 // fraction

	PaperBaselineMs float64 // <0 when the paper reports "-"
	PaperOverhead   float64
}

// table4Paper holds the published Table 4 values (ms, overhead fraction);
// -1 marks "cannot fit into the FPGA".
var table4Paper = map[string][2][2]float64{
	// spec string -> [device][0]=baseline ms, [device][1]=overhead frac.
	"GRU h=512 t=1":     {{0.0131, 0.038}, {0.0227, 0.039}},
	"GRU h=1024 t=1500": {{5.01, 0.078}, {18.5, 0.078}},
	"GRU h=1536 t=375":  {{1.83, 0.075}, {6.91, 0.075}},
	"LSTM h=256 t=150":  {{0.726, 0.057}, {1.31, 0.056}},
	"LSTM h=512 t=25":   {{0.129, 0.053}, {0.232, 0.053}},
	"LSTM h=1024 t=25":  {{0.146, 0.070}, {0.263, 0.071}},
	"LSTM h=1536 t=50":  {{0.238, 0.084}, {-1, -1}},
}

// Table4 reproduces the single-FPGA inference latency comparison: the AS
// ISA-only baseline vs the virtualized deployment, per device type.
func Table4() ([]Table4Row, error) {
	p := perf.DefaultParams()
	devices := []string{"XCVU37P", "XCKU115"}
	var rows []Table4Row
	for _, spec := range kernels.DeepBenchSuite() {
		paper := table4Paper[spec.String()]
		for di, dev := range devices {
			row := Table4Row{
				Spec: spec, Device: dev,
				PaperBaselineMs: paper[di][0],
				PaperOverhead:   paper[di][1],
			}
			inst, err := perf.ChooseInstance(spec, dev)
			if err != nil {
				rows = append(rows, row) // Fits stays false: the "-" entry
				continue
			}
			base := perf.Baseline(spec, inst, p)
			virt, err := perf.Virtualized(spec, inst, 2, p)
			if err != nil {
				return nil, err
			}
			row.Fits = true
			row.Tiles = inst.Tiles
			row.Baseline = base.Total
			row.ThisWork = virt.Total
			row.Overhead = perf.OverheadFrac(base, virt)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTable2 renders Table 2 rows as text.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: baseline accelerator implementation (measured | paper)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-8s tiles=%2d LUTs=%7d (%4.1f%% | paper %7d) DSPs=%5d (paper %5d) "+
			"BRAM=%5.1fMb URAM=%5.1fMb %3.0fMHz peak=%5.1f TFLOPS (paper %5.1f)\n",
			r.Name, r.Device, r.Tiles,
			r.Resources.LUTs, 100*r.UtilLUT, r.PaperLUTs,
			r.Resources.DSPs, r.PaperDSPs,
			float64(r.Resources.BRAMKb)/1024, float64(r.Resources.URAMKb)/1024,
			r.ClockMHz, r.PeakTFLOPS, r.PaperPeakTFLOPS)
	}
	return sb.String()
}

// FormatTable3 renders Table 3 rows as text.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: one ViTAL virtual block per device (measured | paper)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s blocks/device=%2d LUTs=%6d (paper %6d) DSPs=%4d (paper %4d) "+
			"BRAM=%4.1fMb URAM=%4.1fMb %3.0fMHz peak=%4.2f TFLOPS (paper %4.2f)\n",
			r.Device, r.BlocksPerDevice,
			r.Usable.LUTs, r.PaperLUTs, r.Usable.DSPs, r.PaperDSPs,
			float64(r.Usable.BRAMKb)/1024, float64(r.Usable.URAMKb)/1024,
			r.ClockMHz, r.PeakTFLOPS, r.PaperPeakTFLOPS)
	}
	return sb.String()
}

// FormatTable4 renders Table 4 rows as text.
func FormatTable4(rows []Table4Row) string {
	var sb strings.Builder
	sb.WriteString("Table 4: LSTM/GRU inference latency, baseline vs this work (measured | paper)\n")
	for _, r := range rows {
		if !r.Fits {
			fmt.Fprintf(&sb, "%-18s %-8s  -  (cannot fit; paper: -)\n", r.Spec, r.Device)
			continue
		}
		fmt.Fprintf(&sb, "%-18s %-8s tiles=%2d base=%9.4fms (paper %9.4f) virt=%9.4fms ovh=%4.1f%% (paper %4.1f%%)\n",
			r.Spec, r.Device, r.Tiles,
			ms(r.Baseline), r.PaperBaselineMs, ms(r.ThisWork),
			100*r.Overhead, 100*r.PaperOverhead)
	}
	return sb.String()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
