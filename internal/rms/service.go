package rms

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"mlvfpga/internal/hsvital"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/tenant"
)

// Service is the long-lived system controller of Fig. 7, exposed to the
// high-level system (e.g. a hypervisor): Deploy admits an accelerator for
// a layer and returns a lease over concrete virtual blocks, Release frees
// them, Status reports cluster occupancy. Unlike Simulate, which replays a
// task trace through virtual time, Service is the interactive admission
// API a real deployment would integrate against.
type Service struct {
	// mu guards the lease records whole, engines included: /infer's steady
	// state takes it shared for one lookup.
	mu      sync.RWMutex
	ctrl    *hsvital.Controller
	db      *Database
	inv     map[string]int              // devices per type, fixed at construction
	ladders map[kernels.LayerSpec][]int // FeasibleDepths' memo, guarded by mu

	nextID int
	leases map[int]*leaseRecord
	// weights is the weight table: one set per model a live lease binds
	// (DataPlane.newEngine), dropped with its last lease or on Close.
	weights map[weightKey]*weightSet

	// filter, when set, vetoes devices for every placement (the cluster
	// control plane installs its health view here).
	filter func(fpgaID int) bool
	// compiler, when set, ensures the layer's full compilation product is
	// in the artifact store before placement (see SetCompiler).
	compiler *Compiler
	// tenants, when set, turns on quota enforcement: deploys and
	// migrations carrying a tenant id are checked against the registry's
	// lease/device/block quotas (see SetTenants).
	tenants *tenant.Registry
}

// Placement locates one soft block of a lease.
type Placement struct {
	// FPGA is the physical device id (ring position).
	FPGA int `json:"fpga"`
	// Device is the device type name.
	Device string `json:"device"`
	// Blocks is the number of virtual blocks held.
	Blocks int `json:"blocks"`
}

// Lease is one admitted accelerator deployment.
type Lease struct {
	ID int `json:"id"`
	// Tenant is the owning tenant id (empty in anonymous mode).
	Tenant string `json:"tenant,omitempty"`
	// Spec is the layer the accelerator serves.
	Spec kernels.LayerSpec `json:"-"`
	// SpecString renders the layer for API clients.
	SpecString string `json:"spec"`
	// Placements are the held virtual blocks, one per soft block.
	Placements []Placement `json:"placements"`
	// Latency is the modelled per-inference latency of this deployment.
	Latency time.Duration `json:"latency_ns"`
	// Depth is the deployment's piece count — its rung on the partition
	// ladder (1, 2 or 4 devices).
	Depth int `json:"depth"`
	// Migrations counts how many times the control plane re-placed this
	// lease (depth changes and evacuations).
	Migrations int `json:"migrations"`
	// ArtifactKey is the content address of the lease's compilation
	// product in the artifact store (empty when no compiler is installed).
	ArtifactKey string `json:"artifact_key,omitempty"`
	// WarmDeploy reports that the deploy was served from the compilation
	// cache and skipped straight to placement.
	WarmDeploy bool `json:"warm_deploy,omitempty"`
}

// leaseRecord is the one place a lease lives: its grant, and the serving
// engine the data plane builds for it. Service.mu guards the Lease (past
// its immutable ID and Spec), released and engine; buildErr is written
// once, inside build.
type leaseRecord struct {
	Lease
	// released is set when Release begins: from then on no engine may be
	// installed, and the record leaves the table once its blocks are freed.
	released bool
	// engine is the data plane's engine, nil until the first InferAs, a
	// Prebuild or a Resize installs one (see DataPlane.engine).
	engine   *contEngine
	build    sync.Once
	buildErr error
	// root's id seeds the weights (a replica's is its source's root); weights
	// is the set its engines bind, from the first build to Release.
	root    int
	weights *weightSet
	// baton (cap 1) hands the lease's machines from a caller that leaves
	// work behind, or from a Resize, to a caller waiting on its answer
	// (see contEngine.drive and DataPlane.await).
	baton chan struct{}
}

// ClusterStatus is a point-in-time occupancy snapshot.
type ClusterStatus struct {
	FPGAs []FPGAStatus `json:"fpgas"`
	// Utilization is occupied/total virtual blocks.
	Utilization float64 `json:"utilization"`
	// ActiveLeases counts admitted deployments.
	ActiveLeases int `json:"active_leases"`
}

// FPGAStatus is one device's occupancy.
type FPGAStatus struct {
	ID          int    `json:"id"`
	Device      string `json:"device"`
	TotalBlocks int    `json:"total_blocks"`
	FreeBlocks  int    `json:"free_blocks"`
}

// ErrNoCapacity is returned when no deployment of the layer fits the
// cluster's current free blocks.
var ErrNoCapacity = errors.New("rms: no capacity for layer right now")

// ErrUnknownLease is returned by Release for an unknown id.
var ErrUnknownLease = errors.New("rms: unknown lease")

// ErrNoSuchDepth is returned when the mapping database has no deployment
// with the requested piece count for a layer.
var ErrNoSuchDepth = errors.New("rms: no deployment at requested depth")

// ErrQuotaExceeded is returned when an admission would push the tenant
// over its lease, device or block quota. Unlike ErrNoCapacity the cluster
// has room — the tenant has spent its share (HTTP maps this to 429).
var ErrQuotaExceeded = errors.New("rms: tenant quota exceeded")

// ErrUnknownTenant is returned when a request names a tenant the service's
// registry does not know (only possible through the programmatic API — the
// HTTP guard rejects unknown tenants with 401 before admission).
var ErrUnknownTenant = errors.New("rms: unknown tenant")

// unknownTenant is the per-tenant counter key such requests share, as in
// tenant.Guard: the id is the caller's word, and every distinct key stays
// in the expvar maps for the life of the process.
const unknownTenant = "unknown"

// NewService builds a service over a fresh cluster.
func NewService(cluster map[string]int, db *Database) (*Service, error) {
	if db == nil {
		return nil, fmt.Errorf("rms: nil database")
	}
	ctrl, err := hsvital.NewController(cluster)
	if err != nil {
		return nil, err
	}
	return &Service{ctrl: ctrl, db: db, inv: inventory(ctrl), ladders: map[kernels.LayerSpec][]int{}, leases: map[int]*leaseRecord{}, weights: map[weightKey]*weightSet{}}, nil
}

// PlaceOptions constrains a deployment beyond the default greedy policy.
type PlaceOptions struct {
	// Depth restricts placement to deployments with exactly this many
	// pieces (0 = any, walked in the database's greedy order).
	Depth int
	// Tenant attributes the lease to a tenant id; when the service has a
	// registry installed the tenant's quotas gate the admission. Empty
	// means anonymous (no quota checks).
	Tenant string
	// Replicates names a live lease of the same tenant and layer whose model
	// (weight set) the new lease serves too: 0 is none, any other ErrUnknownLease.
	Replicates int
}

// SetTenants installs the tenant registry, turning on quota enforcement
// for deploys and migrations that carry a tenant id. A nil registry
// restores anonymous admission.
func (s *Service) SetTenants(reg *tenant.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenants = reg
}

// TenantUsage reports a tenant's currently granted resources, summed over
// its live leases.
func (s *Service) TenantUsage(id string) (leases, devices, blocks int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.usageLocked(id, 0)
}

// usageLocked sums the tenant's grants, skipping skipLease (0 = none) so
// migrations can cost the destination against quota without
// double-counting the placement being vacated.
func (s *Service) usageLocked(id string, skipLease int) (leases, devices, blocks int) {
	for _, l := range s.leases {
		if l.Tenant != id || l.ID == skipLease {
			continue
		}
		leases++
		devices += len(l.Placements)
		for _, pl := range l.Placements {
			blocks += pl.Blocks
		}
	}
	return leases, devices, blocks
}

// quotaAdmits reports whether granting dep on top of the tenant's current
// usage (minus skipLease) stays within q. MaxLeases is checked only when
// the grant adds a lease (skipLease == 0).
func quotaAdmits(q tenant.Quotas, leases, devices, blocks int, dep Deployment, skipLease int) bool {
	if skipLease == 0 && q.MaxLeases > 0 && leases+1 > q.MaxLeases {
		return false
	}
	if q.MaxDevices > 0 && devices+dep.NumPieces() > q.MaxDevices {
		return false
	}
	if q.MaxBlocks > 0 && blocks+dep.TotalBlocks() > q.MaxBlocks {
		return false
	}
	return true
}

// SetPlacementFilter installs a device veto consulted by every placement:
// ok(fpgaID) must return true for a device to receive soft blocks. The
// cluster control plane uses this to keep new placements off suspect,
// dead and draining devices. A nil filter allows every device.
func (s *Service) SetPlacementFilter(ok func(fpgaID int) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.filter = ok
}

// SetCompiler installs the warm-start compile path: every Deploy first
// ensures the layer's full compilation product is present in the artifact
// store (a known design hits the cache in microseconds and skips straight
// to placement; an unknown one compiles exactly once even under
// concurrent deploys, via the store's singleflight guard). A nil compiler
// restores the placement-only behaviour.
func (s *Service) SetCompiler(c *Compiler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compiler = c
}

// Deploy admits an accelerator for the layer using the greedy policy
// (fewest soft blocks first) and returns the lease. It fails with
// ErrNoCapacity when nothing fits right now and ErrUndeployable when the
// layer can never be deployed.
func (s *Service) Deploy(spec kernels.LayerSpec) (*Lease, error) {
	return s.DeployWith(spec, PlaceOptions{})
}

// DeployWith admits an accelerator under the given placement constraints.
func (s *Service) DeployWith(spec kernels.LayerSpec, po PlaceOptions) (*Lease, error) {
	opts, err := s.db.Options(spec)
	if err != nil {
		return nil, err
	}
	// Ensure the compilation product before taking the service lock:
	// compiles must never serialize admissions, and the store's own
	// singleflight already coalesces concurrent deploys of one design.
	// The artifact stays cached even if placement fails below — the next
	// attempt warm-starts.
	var (
		artifactKey string
		warmDeploy  bool
	)
	s.mu.Lock()
	compiler := s.compiler
	s.mu.Unlock()
	if compiler != nil {
		_, key, warm, cerr := compiler.Ensure(spec)
		if cerr != nil {
			return nil, fmt.Errorf("rms: compiling %v: %w", spec, cerr)
		}
		artifactKey, warmDeploy = string(key), warm
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var (
		quotas    tenant.Quotas
		enforce   bool
		tLeases   int
		tDevices  int
		tBlocks   int
		quotaRoom bool // some depth-eligible candidate passed the quota gate
	)
	if po.Tenant != "" && s.tenants != nil {
		t, ok := s.tenants.Lookup(po.Tenant)
		if !ok {
			metrics.TenantRequests.Add(unknownTenant, 1)
			metrics.TenantRejections.Add(unknownTenant, 1)
			return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, po.Tenant)
		}
		quotas, enforce = t.Quotas, true
		tLeases, tDevices, tBlocks = s.usageLocked(po.Tenant, 0)
	}
	if po.Tenant != "" {
		metrics.TenantRequests.Add(po.Tenant, 1)
	}
	root := 0
	if src := s.leases[po.Replicates]; src != nil && !src.released && src.Tenant == po.Tenant && src.Spec == spec {
		root = src.root
	} else if po.Replicates != 0 {
		return nil, fmt.Errorf("%w: no live lease %d of tenant %q serving %v to replicate", ErrUnknownLease, po.Replicates, po.Tenant, spec)
	}
	sawDepth := false
	for _, dep := range opts {
		if po.Depth > 0 && dep.NumPieces() != po.Depth {
			continue
		}
		sawDepth = true
		if enforce && !quotaAdmits(quotas, tLeases, tDevices, tBlocks, dep, 0) {
			continue
		}
		quotaRoom = true
		placements := s.tryPlaceLocked(dep, nil)
		if placements == nil {
			continue
		}
		if err := configure(s.ctrl, placements); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNoCapacity, err)
		}
		s.nextID++
		rec := &leaseRecord{Lease: Lease{
			ID:          s.nextID,
			Tenant:      po.Tenant,
			Spec:        spec,
			SpecString:  spec.String(),
			Placements:  placements,
			Latency:     dep.Latency,
			Depth:       dep.NumPieces(),
			ArtifactKey: artifactKey,
			WarmDeploy:  warmDeploy,
		}, root: cmp.Or(root, s.nextID), baton: make(chan struct{}, 1)}
		s.leases[rec.ID] = rec
		metrics.LeasesActive.Add(1)
		return &rec.Lease, nil
	}
	if po.Depth > 0 && !sawDepth {
		return nil, fmt.Errorf("%w: %d pieces for %v", ErrNoSuchDepth, po.Depth, spec)
	}
	if enforce && sawDepth && !quotaRoom {
		// Every depth-eligible deployment was quota-blocked: the cluster
		// may have room, but this tenant has spent its share.
		metrics.TenantRejections.Add(po.Tenant, 1)
		return nil, fmt.Errorf("%w: %s deploying %v", ErrQuotaExceeded, po.Tenant, spec)
	}
	return nil, fmt.Errorf("%w: %v", ErrNoCapacity, spec)
}

// FeasibleDepths returns the piece counts (partition-ladder rungs) the
// database offers for a layer, ascending, that the physical cluster can
// host at all: depths with at least one deployment whose device-type
// requirements fit the inventory, ignoring current occupancy. The control
// plane plans against this ladder so it never chases a depth the fleet
// could not place even when empty (e.g. a 4×XCVU37P deployment on a
// cluster with three). The inventory is fixed, so each spec's ladder is
// priced once and shared: callers must not modify the returned slice.
func (s *Service) FeasibleDepths(spec kernels.LayerSpec) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ladder, ok := s.ladders[spec]; ok {
		return ladder, nil
	}
	ladder, err := s.depths(spec, s.inv)
	if err == nil {
		s.ladders[spec] = ladder
	}
	return ladder, err
}

// depths lists the distinct piece counts among the layer's deployments,
// ascending — only those that fit inv when it is non-nil.
func (s *Service) depths(spec kernels.LayerSpec, inv map[string]int) ([]int, error) {
	opts, err := s.db.Options(spec)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, len(opts))
	for _, dep := range opts {
		if inv == nil || dep.fitsInventory(inv) {
			out = append(out, dep.NumPieces())
		}
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// Migrate re-places a lease at the requested depth, avoiding the vetoed
// devices, while keeping its identity (the data plane keeps serving under
// the same id). The default protocol is make-before-break: the new pieces
// are configured while the old blocks are still held, so a migration needs
// headroom but never strands the lease. With force set (used when the old
// placement includes a dead device) the old blocks are freed first; if no
// new placement fits, the old one is restored and ErrNoCapacity returned
// so the control plane can back off and retry. A non-nil accept sees every
// placement Migrate is about to configure and may decline it (the next
// deployment of that depth is tried; none accepted is ErrNoCapacity): the
// caller's policy judges the placement that will happen, not a preview of
// its own. accept runs under the service lock and must not call back in.
func (s *Service) Migrate(id, depth int, avoid func(fpgaID int) bool, force bool, accept func([]Placement) bool) (*Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.leases[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownLease, id)
	}
	lease := &rec.Lease
	opts, err := s.db.Options(lease.Spec)
	if err != nil {
		return nil, err
	}
	var candidates []Deployment
	for _, dep := range opts {
		if dep.NumPieces() == depth {
			candidates = append(candidates, dep)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w: %d pieces for %v", ErrNoSuchDepth, depth, lease.Spec)
	}
	if lease.Tenant != "" && s.tenants != nil {
		if t, ok := s.tenants.Lookup(lease.Tenant); ok {
			// Cost the destination against quota with the migrating lease's
			// own grants excluded, so a same-size evacuation always passes
			// and only genuine scale-ups can be quota-blocked.
			tl, td, tb := s.usageLocked(lease.Tenant, lease.ID)
			kept := candidates[:0]
			for _, dep := range candidates {
				if quotaAdmits(t.Quotas, tl, td, tb, dep, lease.ID) {
					kept = append(kept, dep)
				}
			}
			if len(kept) == 0 {
				metrics.TenantRejections.Add(lease.Tenant, 1)
				return nil, fmt.Errorf("%w: migrating lease %d of %s to depth %d",
					ErrQuotaExceeded, id, lease.Tenant, depth)
			}
			candidates = kept
		}
	}

	place := func() (Deployment, []Placement, bool) {
		for _, dep := range candidates {
			if pls := s.tryPlaceLocked(dep, avoid); pls != nil && (accept == nil || accept(pls)) {
				return dep, pls, true
			}
		}
		return Deployment{}, nil, false
	}

	old := lease.Placements
	if dep, pls, ok := place(); ok {
		// Make-before-break: configure new, then free old.
		if err := configure(s.ctrl, pls); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNoCapacity, err)
		}
		release(s.ctrl, old)
		lease.Placements, lease.Latency, lease.Depth = pls, dep.Latency, depth
		lease.Migrations++
		return lease, nil
	}
	if !force {
		return nil, fmt.Errorf("%w: migrating lease %d to depth %d", ErrNoCapacity, id, depth)
	}
	// Break-before-make: free the old blocks (a dead device's blocks are
	// unusable anyway) and try again; restore on failure.
	release(s.ctrl, old)
	if dep, pls, ok := place(); ok {
		if err := configure(s.ctrl, pls); err == nil {
			lease.Placements, lease.Latency, lease.Depth = pls, dep.Latency, depth
			lease.Migrations++
			return lease, nil
		}
	}
	if err := configure(s.ctrl, old); err != nil {
		// Cannot happen: we hold the lock, so the freed blocks are intact.
		panic(fmt.Sprintf("rms: restoring placements for lease %d: %v", id, err))
	}
	return nil, fmt.Errorf("%w: forced migration of lease %d to depth %d", ErrNoCapacity, id, depth)
}

// configure occupies every placement's blocks, rolling back on failure.
func configure(ctrl *hsvital.Controller, placements []Placement) error {
	for i, pl := range placements {
		if err := ctrl.Configure(pl.FPGA, pl.Blocks); err != nil {
			for _, done := range placements[:i] {
				_ = ctrl.Release(done.FPGA, done.Blocks)
			}
			return err
		}
	}
	return nil
}

func release(ctrl *hsvital.Controller, placements []Placement) {
	for _, pl := range placements {
		if err := ctrl.Release(pl.FPGA, pl.Blocks); err != nil {
			panic(fmt.Sprintf("rms: release: %v", err))
		}
	}
}

// bestFit is the system controller's placement policy (§2.3), shared by
// the Service and the Fig. 12 simulator: each piece goes to the device of
// its type with the fewest free blocks that still fit it (limiting
// fragmentation), no device hosting two pieces of one deployment and none
// that skip vetoes. Returns nil when some piece has no home right now.
func bestFit(ctrl *hsvital.Controller, dep Deployment, skip func(fpgaID int) bool) []Placement {
	used := map[int]bool{}
	out := make([]Placement, 0, len(dep.Pieces))
	devs := ctrl.Devices()
	for _, piece := range dep.Pieces {
		bestID, bestFree := -1, 1<<30
		for i := range devs {
			f := &devs[i]
			if used[f.ID] || f.Spec.Device.Name != piece.Device || (skip != nil && skip(f.ID)) {
				continue
			}
			if free := f.FreeBlocks(); free >= piece.Blocks && free < bestFree {
				bestID, bestFree = f.ID, free
			}
		}
		if bestID < 0 {
			return nil
		}
		used[bestID] = true
		out = append(out, Placement{FPGA: bestID, Device: piece.Device, Blocks: piece.Blocks})
	}
	return out
}

// tryPlaceLocked best-fits a deployment (nil = no room), skipping devices vetoed by the
// service-wide filter or the per-call avoid set.
func (s *Service) tryPlaceLocked(dep Deployment, avoid func(int) bool) []Placement {
	return bestFit(s.ctrl, dep, func(id int) bool {
		return (s.filter != nil && !s.filter(id)) || (avoid != nil && avoid(id))
	})
}

func inventory(ctrl *hsvital.Controller) map[string]int {
	inv := map[string]int{}
	for _, f := range ctrl.Devices() {
		inv[f.Spec.Device.Name]++
	}
	return inv
}

// fitsInventory reports whether the cluster has enough devices of each
// type to ever host the deployment, ignoring current occupancy.
func (d Deployment) fitsInventory(inv map[string]int) bool {
	need := map[string]int{}
	for _, piece := range d.Pieces {
		need[piece.Device]++
		if need[piece.Device] > inv[piece.Device] {
			return false
		}
	}
	return true
}

// Release frees a lease's virtual blocks, draining its data-plane engine
// first, outside the lock, so no enqueued micro-batch races the
// deallocation: queued requests are served and in-flight batches finish.
// From its start the record refuses engines; a second Release of it
// answers ErrUnknownLease.
func (s *Service) Release(id int) error {
	s.mu.Lock()
	rec, ok := s.leases[id]
	if !ok || rec.released {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownLease, id)
	}
	rec.released = true
	e := rec.engine
	rec.engine = nil
	if w := rec.weights; w != nil {
		if w.leases--; w.leases == 0 && s.weights[w.key] == w {
			delete(s.weights, w.key)
		}
	}
	s.mu.Unlock()
	if e != nil {
		e.close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	release(s.ctrl, rec.Placements)
	delete(s.leases, id)
	metrics.LeasesActive.Add(-1)
	return nil
}

// Leases returns snapshots of the active leases sorted by id (used by
// graceful shutdown to drain every deployment), in a view of their own.
func (s *Service) Leases() []*Lease { return s.ReadLeases(new(LeaseView)) }

// LeaseView is storage for lease snapshots that its owner refills once per
// pass (the control plane per tick, the simulator per audit) instead of
// allocating a fresh copy each time, as metrics.Values does for counters.
type LeaseView struct {
	slab []Lease
	pls  []Placement
	out  []*Lease
}

// ReadLeases refills v with snapshots of the active leases, sorted by id and
// carved from one Lease and one Placement slab (each lease's placements
// capped), which share nothing with the service and last until v's next read.
func (s *Service) ReadLeases(v *LeaseView) []*Lease {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, l := range s.leases {
		n += len(l.Placements)
	}
	// Grown first, so no append below moves what was carved before it.
	v.slab = slices.Grow(v.slab[:0], len(s.leases))
	v.pls = slices.Grow(v.pls[:0], n)
	v.out = slices.Grow(v.out[:0], len(s.leases))
	for _, l := range s.leases {
		from := len(v.pls)
		v.pls = append(v.pls, l.Placements...)
		v.slab = append(v.slab, l.Lease)
		v.slab[len(v.slab)-1].Placements = v.pls[from:len(v.pls):len(v.pls)]
		v.out = append(v.out, &v.slab[len(v.slab)-1])
	}
	slices.SortFunc(v.out, func(a, b *Lease) int { return cmp.Compare(a.ID, b.ID) })
	return v.out
}

// Devices returns the controller's device table in place, for its ids,
// types and block counts (fixed at construction), never its FreeBlocks.
func (s *Service) Devices() []hsvital.PhysFPGA { return s.ctrl.Devices() }

// Lease returns a snapshot of an active lease by id: a copy, so callers
// never observe a concurrent migration mutating placements in place.
func (s *Service) Lease(id int) (*Lease, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.leases[id]
	if !ok {
		return nil, false
	}
	cp := l.Lease
	cp.Placements = append([]Placement{}, l.Placements...)
	return &cp, true
}

// Status snapshots the cluster.
func (s *Service) Status() ClusterStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	devs := s.ctrl.Devices()
	st := ClusterStatus{
		FPGAs:        make([]FPGAStatus, 0, len(devs)),
		Utilization:  s.ctrl.Utilization(),
		ActiveLeases: len(s.leases),
	}
	for i := range devs {
		f := &devs[i]
		st.FPGAs = append(st.FPGAs, FPGAStatus{
			ID:          f.ID,
			Device:      f.Spec.Device.Name,
			TotalBlocks: f.Spec.BlocksPerDevice,
			FreeBlocks:  f.FreeBlocks(),
		})
	}
	return st
}

// CheckInvariants audits placement conservation: each device's occupied
// blocks equal the sum of the live leases' placements on it.
func (s *Service) CheckInvariants() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	held := map[int]int{}
	for _, l := range s.leases {
		for _, pl := range l.Placements {
			held[pl.FPGA] += pl.Blocks
		}
	}
	devs := s.ctrl.Devices()
	for i := range devs {
		f := &devs[i]
		if got := f.Spec.BlocksPerDevice - f.FreeBlocks(); got != held[f.ID] {
			return fmt.Errorf("device %d: %d blocks occupied, leases account for %d", f.ID, got, held[f.ID])
		}
	}
	return nil
}
