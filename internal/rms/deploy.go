// Package rms is the runtime management system of the framework (§2.3):
// a system controller that keeps a database of mapping results (clusters
// of soft blocks compiled for every feasible device type), allocates
// physical FPGAs with a greedy policy that minimizes the number of
// allocated devices (and therefore the inter-FPGA communication), and
// sends configuration requests to the HS abstraction's low-level
// controller. Soft blocks of different accelerators share one FPGA when
// virtual blocks are available — the fine-grained sharing the AS ISA-only
// baseline cannot do.
package rms

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/scaleout"
)

// PolicyMode selects the runtime policy of §4.4.
type PolicyMode int

const (
	// Flexible is the proposed policy: one accelerator's soft blocks may
	// deploy onto FPGAs of different types.
	Flexible PolicyMode = iota
	// SameTypeOnly restricts one accelerator's pieces to FPGAs of a single
	// type, chosen at runtime — the literal reading of Fig. 12's
	// "restricted runtime policy".
	SameTypeOnly
	// StaticTarget additionally pins every accelerator to the one device
	// type it was compiled for offline (its lowest-latency feasible
	// target), the way HS abstractions built for homogeneous clusters are
	// actually operated. Fig. 12's restricted system lies between
	// SameTypeOnly and StaticTarget; the experiments report both.
	StaticTarget
)

func (m PolicyMode) String() string {
	switch m {
	case SameTypeOnly:
		return "restricted"
	case StaticTarget:
		return "static-target"
	}
	return "flexible"
}

// PieceReq is one soft block's demand: a device type and a virtual-block
// count.
type PieceReq struct {
	Device string
	Blocks int
}

// Deployment is one mapping result from the database: the pieces to place
// and the modelled task latency when running this way.
type Deployment struct {
	Pieces  []PieceReq
	Latency time.Duration
}

// NumPieces returns the soft-block count (the greedy policy's sort key).
func (d Deployment) NumPieces() int { return len(d.Pieces) }

// TotalBlocks sums virtual blocks across pieces.
func (d Deployment) TotalBlocks() int {
	n := 0
	for _, p := range d.Pieces {
		n += p.Blocks
	}
	return n
}

// Database caches deployment options per layer (the system controller's
// mapping-result store, Fig. 7). It is safe for concurrent use: the
// admission service and the cluster control plane consult it from
// different goroutines.
type Database struct {
	mode PolicyMode
	p    perf.Params
	net  scaleout.TwoFPGAOptions

	mu    sync.Mutex
	cache map[kernels.LayerSpec][]Deployment
}

// NewDatabase builds an empty database.
func NewDatabase(mode PolicyMode, p perf.Params, net scaleout.TwoFPGAOptions) *Database {
	return &Database{mode: mode, p: p, net: net, cache: map[kernels.LayerSpec][]Deployment{}}
}

// ErrUndeployable is returned when no deployment exists for a layer.
var ErrUndeployable = errors.New("rms: no feasible deployment for layer")

// deviceTypes lists device type names largest-first, in one slice built
// once that callers share and must not modify.
var deviceTypes = sync.OnceValue(func() []string {
	var out []string
	for _, s := range hsvital.AllSpecs() {
		out = append(out, s.Device.Name)
	}
	return out
})

// Options returns the deployments for a layer, sorted by the greedy key:
// ascending soft-block count (§2.3), then latency, then total blocks.
func (db *Database) Options(spec kernels.LayerSpec) ([]Deployment, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if opts, ok := db.cache[spec]; ok {
		return opts, nil
	}
	var opts []Deployment

	// Single-FPGA deployments.
	for _, dev := range deviceTypes() {
		inst, err := perf.ChooseInstance(spec, dev)
		if err != nil {
			continue
		}
		blocks, err := instanceBlocks(dev, inst.Tiles)
		if err != nil {
			continue
		}
		virt, err := perf.Virtualized(spec, inst, 2, db.p)
		if err != nil {
			return nil, err
		}
		opts = append(opts, Deployment{
			Pieces:  []PieceReq{{Device: dev, Blocks: blocks}},
			Latency: virt.Total,
		})
	}

	// Scaled-out deployments across 2 and 4 devices, for cells with a
	// scaled step program.
	for _, n := range []int{2, 4} {
		if spec.Hidden%n != 0 || !spec.Kind.ScalesDown() {
			continue
		}
		for _, combo := range deviceCombos(n, db.mode) {
			dep, err := db.scaledDeployment(spec, combo)
			if err != nil {
				continue
			}
			opts = append(opts, dep)
		}
	}

	if db.mode == StaticTarget && len(opts) > 0 {
		// Keep only deployments for the statically chosen target: the
		// device type of the lowest-latency option.
		best := opts[0]
		for _, o := range opts[1:] {
			if o.Latency < best.Latency {
				best = o
			}
		}
		target := best.Pieces[0].Device
		var kept []Deployment
		for _, o := range opts {
			ok := true
			for _, piece := range o.Pieces {
				if piece.Device != target {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, o)
			}
		}
		opts = kept
	}

	if len(opts) == 0 {
		return nil, fmt.Errorf("%w: %v", ErrUndeployable, spec)
	}
	// Prune mapping results whose modelled latency is more than twice the
	// task's best option: deploying them would trade a small packing gain
	// for a large latency regression (and would violate the performance
	// isolation story of §4.4). The task instead waits for a better slot.
	best := opts[0].Latency
	for _, o := range opts[1:] {
		if o.Latency < best {
			best = o.Latency
		}
	}
	kept := opts[:0]
	for _, o := range opts {
		if float64(o.Latency) <= 2*float64(best) {
			kept = append(kept, o)
		}
	}
	opts = kept
	sort.SliceStable(opts, func(i, j int) bool {
		if opts[i].NumPieces() != opts[j].NumPieces() {
			return opts[i].NumPieces() < opts[j].NumPieces()
		}
		if opts[i].Latency != opts[j].Latency {
			return opts[i].Latency < opts[j].Latency
		}
		return opts[i].TotalBlocks() < opts[j].TotalBlocks()
	})
	db.cache[spec] = opts
	return opts, nil
}

// deviceCombos enumerates device-type multisets of size n. Under the
// restricted policy only uniform combos are allowed.
func deviceCombos(n int, mode PolicyMode) [][]string {
	types := deviceTypes()
	var out [][]string
	if mode != Flexible {
		for _, t := range types {
			combo := make([]string, n)
			for i := range combo {
				combo[i] = t
			}
			out = append(out, combo)
		}
		return out
	}
	// Multisets over two types: k of the first, n-k of the second.
	for k := n; k >= 0; k-- {
		combo := make([]string, 0, n)
		for i := 0; i < k; i++ {
			combo = append(combo, types[0])
		}
		for i := k; i < n; i++ {
			combo = append(combo, types[1])
		}
		out = append(out, combo)
	}
	return out
}

// scaledDeployment builds the deployment for one device combo.
func (db *Database) scaledDeployment(spec kernels.LayerSpec, devices []string) (Deployment, error) {
	n := len(devices)
	pieces := make([]PieceReq, n)
	for i, dev := range devices {
		tiles, err := perf.MinTilesScaled(spec, dev, n)
		if err != nil {
			return Deployment{}, err
		}
		blocks, err := instanceBlocks(dev, tiles)
		if err != nil {
			return Deployment{}, err
		}
		pieces[i] = PieceReq{Device: dev, Blocks: blocks}
	}
	lat, err := scaleout.NFPGALatency(spec, devices, db.p, db.net)
	if err != nil {
		return Deployment{}, err
	}
	return Deployment{Pieces: pieces, Latency: lat}, nil
}

// instanceBlocks converts an instance (device, tiles) into a virtual-block
// count via the Table 2/3 calibration.
func instanceBlocks(device string, tiles int) (int, error) {
	m, err := hsvital.CalibratedAccelerator(device, tiles)
	if err != nil {
		return 0, err
	}
	vspec, err := hsvital.SpecFor(device)
	if err != nil {
		return 0, err
	}
	blocks, err := hsvital.BlocksFor(m.Resources, vspec)
	if err != nil {
		return 0, err
	}
	if blocks > vspec.BlocksPerDevice {
		return 0, fmt.Errorf("%w: instance needs %d blocks on %s", hsvital.ErrNoFit, blocks, device)
	}
	return blocks, nil
}
