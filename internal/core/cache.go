package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/decompose"
	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/parpool"
	"mlvfpga/internal/partition"
	"mlvfpga/internal/rtl"
	"mlvfpga/internal/softblock"
)

// This file fronts the offline flow with the content-addressed artifact
// store: CompileKey derives the canonical structural hash of everything
// that determines a Compiled result, CompiledCodec frames the result as a
// blob payload, and CompileAcceleratorCached / InstanceCatalog are
// the cache-aware entry points the runtime and the experiment sweeps use.
// A cache hit skips the entire decompose → partition → HS-compile
// pipeline and, by construction, returns an artifact bit-identical to a
// cold compile (the decode/encode round trip is covered by golden tests).

// compiledSalt names the Compiled keyspace and its wire-format version.
// Bump it whenever Options, the snapshot layout, or any serialized type
// changes shape, so blobs written by older binaries miss cleanly instead
// of decoding into a differently-shaped artifact. Dropping a field the key
// never covered is not a shape change: an older blob's extra "opts" key
// is ignored on decode and the artifact it names is the same
// (TestOldBlobStillDecodes).
const compiledSalt = "mlvfpga/compiled/v1"

// CompileKey derives the content address of the Compiled artifact for
// opts: a canonical FNV-64a digest (rtl.CanonHash) over every input that
// determines the compilation product — the Options fields, the
// per-device-type calibration (control and per-tile resource vectors,
// virtual-block capacity and clock), and the format-version salt.
func CompileKey(opts Options) artifactstore.Key {
	h := rtl.NewCanonHash(compiledSalt)
	h.Field("tiles", opts.Tiles)
	h.Field("iterations", opts.PartitionIterations)
	h.Field("seed", opts.Seed)
	h.Field("pattern_aware", opts.PatternAware)
	h.Raw(calibrationBlock())
	return artifactstore.Key("compiled-" + h.Hex())
}

var (
	calOnce  sync.Once
	calBytes []byte
)

// calibrationBlock renders the per-device-type calibration fields once per
// process (the tables are fixed at init): key derivation is on the warm
// deploy path, and re-formatting the whole table per lookup would swamp
// the cache hit itself. The byte stream matches emitting the same fields
// through CanonHash.Field one by one.
func calibrationBlock() []byte {
	calOnce.Do(func() {
		var b []byte
		field := func(name string, v any) { b = fmt.Appendf(b, "%s=%v;", name, v) }
		for _, spec := range hsvital.AllSpecs() {
			dev := spec.Device.Name
			field("device", dev)
			field("blocks_per_device", spec.BlocksPerDevice)
			field("block_usable", spec.BlockUsable)
			field("clock_mhz", spec.ClockMHz)
			field("max_tiles", hsvital.MaxTiles(dev))
			if ctrl, err := hsvital.ControlResources(dev); err == nil {
				field("control_res", ctrl)
			}
			if perTile, err := hsvital.PerTileResources(dev); err == nil {
				field("per_tile_res", perTile)
			}
		}
		calBytes = b
	})
	return calBytes
}

// imageSnapshot is PieceImage with the piece pointer flattened to its
// pre-order index in Partition.AllPieces(), which both shrinks the blob
// (the partition tree is stored once) and lets decode re-attach images to
// the decoded tree's nodes, preserving the identity invariants the
// frontier/ladder walks rely on.
type imageSnapshot struct {
	Piece       int            `json:"piece"`
	Image       *hsvital.Image `json:"image"`
	Lanes       int            `json:"lanes"`
	WithControl bool           `json:"with_control,omitempty"`
}

// compiledSnapshot is the blob payload layout for one Compiled artifact.
type compiledSnapshot struct {
	Opts           Options                    `json:"opts"`
	Accelerator    *softblock.Accelerator     `json:"accelerator"`
	Partition      *partition.Result          `json:"partition"`
	Images         map[string][]imageSnapshot `json:"images"`
	DecomposeTime  time.Duration              `json:"decompose_time_ns"`
	PartitionTime  time.Duration              `json:"partition_time_ns"`
	HSCompileTime  time.Duration              `json:"hs_compile_time_ns"`
	DecomposeStats decompose.Stats            `json:"decompose_stats"`
}

// compiledCodec implements artifactstore.Codec for *Compiled.
type compiledCodec struct{}

// CompiledCodec (de)serializes Compiled artifacts for the artifact store.
var CompiledCodec artifactstore.Codec = compiledCodec{}

func (compiledCodec) Encode(v any) ([]byte, error) {
	c, ok := v.(*Compiled)
	if !ok || c == nil {
		return nil, fmt.Errorf("core: codec wants *Compiled, got %T", v)
	}
	idx := map[*partition.Node]int{}
	for i, n := range c.Partition.AllPieces() {
		idx[n] = i
	}
	snap := compiledSnapshot{
		Opts:           c.Opts,
		Accelerator:    c.Accelerator,
		Partition:      c.Partition,
		Images:         map[string][]imageSnapshot{},
		DecomposeTime:  c.DecomposeTime,
		PartitionTime:  c.PartitionTime,
		HSCompileTime:  c.HSCompileTime,
		DecomposeStats: c.DecomposeStats,
	}
	for dev, images := range c.Images {
		out := make([]imageSnapshot, 0, len(images))
		for _, pi := range images {
			i, ok := idx[pi.Piece]
			if !ok {
				return nil, fmt.Errorf("core: image piece %q not in partition tree", pi.Image.PieceID)
			}
			out = append(out, imageSnapshot{
				Piece: i, Image: pi.Image, Lanes: pi.Lanes, WithControl: pi.WithControl,
			})
		}
		snap.Images[dev] = out
	}
	return json.Marshal(snap)
}

func (compiledCodec) Decode(data []byte) (any, error) {
	var snap compiledSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	if snap.Accelerator == nil || snap.Partition == nil || snap.Partition.Root == nil {
		return nil, fmt.Errorf("core: snapshot missing accelerator or partition tree")
	}
	if !twoOrNoChildren(snap.Partition.Root) {
		return nil, fmt.Errorf("core: snapshot partition tree has a node with one child")
	}
	pieces := snap.Partition.AllPieces()
	c := &Compiled{
		Opts:           snap.Opts,
		Accelerator:    snap.Accelerator,
		Partition:      snap.Partition,
		Images:         map[string][]PieceImage{},
		DecomposeTime:  snap.DecomposeTime,
		PartitionTime:  snap.PartitionTime,
		HSCompileTime:  snap.HSCompileTime,
		DecomposeStats: snap.DecomposeStats,
	}
	for dev, images := range snap.Images {
		out := make([]PieceImage, 0, len(images))
		for _, is := range images {
			if is.Piece < 0 || is.Piece >= len(pieces) {
				return nil, fmt.Errorf("core: image piece index %d outside tree of %d", is.Piece, len(pieces))
			}
			if is.Image == nil {
				return nil, fmt.Errorf("core: snapshot image missing for piece %d", is.Piece)
			}
			out = append(out, PieceImage{
				Piece: pieces[is.Piece], Image: is.Image, Lanes: is.Lanes, WithControl: is.WithControl,
			})
		}
		c.Images[dev] = out
	}
	if len(c.Images) == 0 {
		return nil, ErrNoImages
	}
	return c, nil
}

// twoOrNoChildren reports whether every node of a decoded partition tree
// is a leaf or has both halves, the shape Result.Walk relies on.
func twoOrNoChildren(n *partition.Node) bool {
	if n.Left == nil || n.Right == nil {
		return n.Left == n.Right
	}
	return twoOrNoChildren(n.Left) && twoOrNoChildren(n.Right)
}

// CompileAcceleratorCached is CompileAccelerator fronted by the artifact
// store: on hit (memory LRU or validated disk blob) the whole offline
// pipeline is skipped, and concurrent calls for one key compile exactly
// once via the store's singleflight guard. The returned artifact may be
// shared between callers and must be treated as immutable. A nil store
// degrades to a plain cold compile. warm reports whether the artifact came
// from cache.
func CompileAcceleratorCached(opts Options, store *artifactstore.Store) (c *Compiled, key artifactstore.Key, warm bool, err error) {
	key = CompileKey(opts)
	if store == nil {
		c, err = CompileAccelerator(opts)
		return c, key, false, err
	}
	v, hit, err := store.GetOrCompute(key, CompiledCodec, func() (any, error) {
		return CompileAccelerator(opts)
	})
	if err != nil {
		return nil, key, false, err
	}
	return v.(*Compiled), key, hit, nil
}

// InstanceCatalog compiles the set of accelerator instances the evaluation
// provides (§4.3: "10 different accelerator instances are provided for the
// two types of FPGAs"), returning one Compiled per tile count. The
// instances are independent, so they compile side by side on one worker
// per logical CPU, each on its own goroutine, and through the artifact
// store when one is given: a repeat sweep over a warm store performs zero
// compiles and is bound by cache lookups (a nil store compiles cold). The
// catalog equals compiling each instance in turn.
func InstanceCatalog(tileCounts []int, iterations int, seed int64, store *artifactstore.Store) ([]*Compiled, error) {
	return parpool.Map(parpool.Workers(0), len(tileCounts), func(i int) (*Compiled, error) {
		c, _, _, err := CompileAcceleratorCached(Options{
			Tiles:               tileCounts[i],
			PartitionIterations: iterations,
			Seed:                seed,
			PatternAware:        true,
		}, store)
		if err != nil {
			return nil, fmt.Errorf("core: instance with %d tiles: %w", tileCounts[i], err)
		}
		return c, nil
	})
}
