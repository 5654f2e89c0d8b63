package core

import (
	"fmt"
	"sort"
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/hfc"
	"cablevod/internal/segment"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// ServerOptions tunes an IndexServer beyond the paper's defaults.
type ServerOptions struct {
	// EnforceStreamLimit applies the 2-stream set-top constraint to
	// serving and cache-fill streams (Section V-C).
	EnforceStreamLimit bool
	// Fill selects segment-availability semantics.
	Fill FillMode
	// BroadcastFill enables absorbing miss broadcasts under
	// FillOnBroadcast.
	BroadcastFill bool
	// Replicas is the number of copies kept per segment (default 1, the
	// paper's model). Extra replicas spread serving load and reduce
	// peer-busy misses at the cost of storage.
	Replicas int
	// PrefixSegments caches only the first N segments of each program
	// (0 = whole program). Motivated by the paper's attrition data:
	// half of all sessions end inside the first two segments.
	PrefixSegments int
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Fill == 0 {
		o.Fill = FillImmediate
	}
	if o.Replicas == 0 {
		o.Replicas = 1
	}
	return o
}

// Validate checks the options.
func (o ServerOptions) Validate() error {
	o = o.withDefaults()
	switch o.Fill {
	case FillImmediate, FillOnBroadcast:
	default:
		return fmt.Errorf("core: invalid fill mode %d", o.Fill)
	}
	if o.Replicas < 1 {
		return fmt.Errorf("core: replicas must be >= 1, got %d", o.Replicas)
	}
	if o.PrefixSegments < 0 {
		return fmt.Errorf("core: negative prefix segments %d", o.PrefixSegments)
	}
	return nil
}

// IndexServer is the headend coordinator of one neighborhood's cooperative
// cache (Section IV-B): it monitors every request to compute popularity,
// decides cache contents at program granularity, places 5-minute segments
// on individual peers, and directs hits to the holding peer's broadcast.
type IndexServer struct {
	nb    *hfc.Neighborhood
	cache *cache.Cache

	// placement holds, by the cache's program-table key, a cached
	// program's resolved placement plan and the peers holding its
	// copies. A placed program's key is pinned in the cache's table
	// until its placement is released, so the key cannot be recycled
	// under it.
	placement []programPlacement

	// lengths resolves program playback lengths.
	lengths func(trace.ProgramID) time.Duration

	opts ServerOptions

	// planner is the policy's optional segment-placement stage (nil:
	// every program gets defaultPlan), defaultPlan the run-configured
	// prefix depth and replica count.
	planner     cache.PlacementPlanner
	defaultPlan cache.Plan

	// generation counts cache-content changes (admissions; evictions
	// only happen with one). Rejected plan upgrades memoize it so an
	// unchanged upgrade is not retried while the victim landscape is
	// also unchanged.
	generation uint64

	// fillCursor rotates placement across peers: with equal
	// contributions, round-robin keeps storage balanced without
	// scanning the whole neighborhood per fill.
	fillCursor int

	// fillFailSize memoizes a failed whole-neighborhood placement scan:
	// no peer had fillFailSize bytes free, so any placement needing at
	// least that much fails without rescanning. Valid while
	// fillFailValid holds; every path that can grow a peer's free space
	// (eviction releases, capacity re-provisioning) clears it. In a
	// saturated cache this turns placeAll's per-segment O(peers) failure
	// scans into O(1).
	fillFailSize  units.ByteSize
	fillFailValid bool
}

// programPlacement is the per-program placement state: the plan the
// program was admitted under and the peers holding each cached segment.
// The zero value is "not placed".
type programPlacement struct {
	// cells holds, per cached segment, stride cells: a copy count, then
	// the neighborhood peer indexes (positions in Neighborhood.Peers,
	// equal to box ID.Index) storing a copy, one per placed replica.
	// Copies sit on distinct peers, so an admitted placement's stride is
	// fullStride(replicas); a restored one is only as wide as the copies
	// it carries and widens on the first fill past that. One int32 array
	// per program keeps the copies out of the garbage collector's
	// pointer scan, and a segment request reaches them in one hop.
	cells  []int32
	stride int32
	// replicas is the plan's copy count per segment; 0 means not placed.
	replicas int32
	// rejectedSegs/rejectedReps/rejectedGen memoize the last rejected
	// plan upgrade: the footprint that lost the victim comparison and
	// the cache generation it lost at. The upgrade is retried only when
	// the wanted footprint or the cache contents have changed since, so
	// a standing rejection costs a plain hit, not an evict-and-restore
	// cycle per request.
	rejectedSegs, rejectedReps int32
	rejectedGen                uint64
}

// segs returns how many cached segments pp covers.
func (pp *programPlacement) segs() int { return len(pp.cells) / int(pp.stride) }

// has reports whether pp covers segment idx.
func (pp *programPlacement) has(idx int) bool {
	return idx >= 0 && idx*int(pp.stride) < len(pp.cells)
}

// segment returns the cells of segment idx (in range): the copy count,
// then room for the copies.
func (pp *programPlacement) segment(idx int) []int32 {
	base := idx * int(pp.stride)
	return pp.cells[base : base+int(pp.stride)]
}

// copies returns the peers holding segment idx (in range).
func (pp *programPlacement) copies(idx int) []int32 {
	c := pp.segment(idx)
	return c[1 : 1+c[0]]
}

// restride lays pp's cells out again at the given stride, which holds
// every segment's copies.
func (pp *programPlacement) restride(stride int) {
	cells := make([]int32, pp.segs()*stride)
	for idx := range pp.segs() {
		c := pp.segment(idx)
		copy(cells[idx*stride:], c[:1+c[0]])
	}
	pp.cells, pp.stride = cells, int32(stride)
}

// fullStride is the cells per segment of a placement with the given
// replica count: the count, then at most one copy per peer.
func (is *IndexServer) fullStride(replicas int) int {
	return 1 + min(replicas, len(is.nb.Peers()))
}

// newPlacement allocates an unfilled placement of segs segments with up
// to replicas copies each.
func (is *IndexServer) newPlacement(segs, replicas int) programPlacement {
	stride := is.fullStride(replicas)
	return programPlacement{
		cells:    make([]int32, segs*stride),
		stride:   int32(stride),
		replicas: int32(replicas),
	}
}

// addCopy records one more copy of segment idx of pp on peer pi. The
// caller picked pi outside the segment's current copies and below the
// plan's replica count, so a full-stride segment has room for it.
func (is *IndexServer) addCopy(pp *programPlacement, idx int, pi int32) {
	if c := pp.segment(idx); int(c[0])+1 == len(c) {
		pp.restride(is.fullStride(int(pp.replicas)))
	}
	c := pp.segment(idx)
	c[1+c[0]] = pi
	c[0]++
}

// NewIndexServer builds the index server for one neighborhood. The cache
// capacity is the pooled storage of the neighborhood's peers; pol decides
// program admission and eviction.
func NewIndexServer(
	nb *hfc.Neighborhood,
	pol cache.Policy,
	lengths func(trace.ProgramID) time.Duration,
	opts ServerOptions,
) (*IndexServer, error) {
	if nb == nil {
		return nil, fmt.Errorf("core: nil neighborhood")
	}
	if lengths == nil {
		return nil, fmt.Errorf("core: nil length resolver")
	}
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	c, err := cache.New(nb.TotalCacheCapacity(), pol)
	if err != nil {
		return nil, err
	}
	planner, _ := pol.(cache.PlacementPlanner)
	if pl, ok := pol.(*cache.Pipeline); ok && pl.Planner() == nil {
		planner = nil // stage absent: every program gets the default plan
	}
	return &IndexServer{
		nb:      nb,
		cache:   c,
		lengths: lengths,
		opts:    opts,
		planner: planner,
		defaultPlan: cache.Plan{
			PrefixSegments: opts.PrefixSegments,
			Replicas:       opts.Replicas,
		},
	}, nil
}

// Neighborhood returns the neighborhood this server coordinates.
func (is *IndexServer) Neighborhood() *hfc.Neighborhood { return is.nb }

// Cache returns the program-granularity cache.
func (is *IndexServer) Cache() *cache.Cache { return is.cache }

// planFor resolves the placement plan for p: the policy's planner stage
// when it has one, the run default otherwise. Planner output is clamped
// so a misbehaving stage cannot produce invalid footprints — a negative
// depth becomes the minimal one-segment prefix (the containing choice;
// 0 would mean the maximal whole-program footprint) and a copy count
// below one becomes one.
func (is *IndexServer) planFor(p trace.ProgramID, now time.Duration) cache.Plan {
	if is.planner == nil {
		return is.defaultPlan
	}
	plan := is.planner.PlacementPlan(p, now, is.defaultPlan)
	if plan.PrefixSegments < 0 {
		plan.PrefixSegments = 1
	}
	if plan.Replicas < 1 {
		plan.Replicas = 1
	}
	return plan
}

// cachedSegments returns how many leading segments of p the given plan
// keeps.
func (is *IndexServer) cachedSegments(p trace.ProgramID, plan cache.Plan) int {
	n := segment.Count(is.lengths(p))
	if plan.PrefixSegments > 0 && n > plan.PrefixSegments {
		return plan.PrefixSegments
	}
	return n
}

// admissionSize returns the storage the cache charges for admitting p
// under the given plan: the cached prefix, once per replica.
func (is *IndexServer) admissionSize(p trace.ProgramID, plan cache.Plan) units.ByteSize {
	length := is.lengths(p)
	segs := is.cachedSegments(p, plan)
	if segs == 0 {
		return 0
	}
	// Closed form: every segment but a full program's last is exactly
	// segment.Size. This runs once per session request, so the per-segment
	// loop it replaces was measurable.
	size := units.ByteSize(segs-1) * segment.Size
	if segs == segment.Count(length) {
		size += segment.SizeOf(length, segs-1)
	} else {
		size += segment.Size
	}
	return size * units.ByteSize(plan.Replicas)
}

// OnSessionStart records a session request with the caching strategy and
// applies any admission/eviction it triggers. It returns the cache access
// result.
//
// When the policy's planner deepens a cached program's plan (more
// segments or more replicas than it was admitted under — a cold program
// warming up), the program is re-admitted under the new plan: the old
// placement is released and the access below charges and places the
// deeper footprint, with the session streaming from the central server
// like any first fetch while peers are re-seeded. If the deeper
// footprint loses the victim comparison, the old footprint is restored
// untouched — a failed upgrade never costs a hot program its cached
// prefix.
func (is *IndexServer) OnSessionStart(p trace.ProgramID, now time.Duration) cache.AccessResult {
	res, _ := is.onSessionStart(p, now)
	return res
}

// onSessionStart is OnSessionStart also returning p's program-table key
// after the access (cache.NoKey when p holds no live state), which a
// session memoizes for its segment requests.
func (is *IndexServer) onSessionStart(p trace.ProgramID, now time.Duration) (cache.AccessResult, cache.Key) {
	plan := is.planFor(p, now)
	planSegs := 0
	upgrade := false
	var rollbackSize units.ByteSize
	if pp := plannedPlacement(is, p); pp != nil {
		planSegs = is.cachedSegments(p, plan)
		deeper := planSegs > pp.segs() || plan.Replicas > int(pp.replicas)
		retried := planSegs == int(pp.rejectedSegs) && plan.Replicas == int(pp.rejectedReps) &&
			pp.rejectedGen == is.generation
		if deeper && !retried {
			rollbackSize, _ = is.cache.ChargedSize(p)
			is.cache.Evict(p) // the placement's pin keeps p's key
			upgrade = true
		}
	}
	res, k := is.cache.AccessKey(p, is.admissionSize(p, plan), now)
	for _, victim := range res.Evicted {
		is.releasePlacement(is.cache.Key(victim))
	}
	switch {
	case res.Admitted:
		is.generation++
		if upgrade {
			is.releasePlacement(k) // the deeper plan supersedes the old copies
		}
		is.placement = cache.GrowKeyed(is.placement, k)
		pp := &is.placement[k]
		*pp = is.newPlacement(is.cachedSegments(p, plan), plan.Replicas)
		is.cache.Pin(k)
		if is.opts.Fill == FillImmediate {
			is.placeAll(p, pp)
		}
	case upgrade:
		// Upgrade rejected: the bytes it would have displaced are more
		// valuable. Re-charge the old footprint (it still fits — it just
		// vacated the space), keep serving from the old placement, and
		// memoize the loss so the same footprint is not retried until
		// the cache contents change.
		is.cache.Restore(p, rollbackSize, now)
		pp := &is.placement[k]
		pp.rejectedSegs, pp.rejectedReps, pp.rejectedGen = int32(planSegs), int32(plan.Replicas), is.generation
	}
	return res, k
}

// placed returns the placement under key k (cache.NoKey allowed), or
// nil when k's program is not placed.
func (is *IndexServer) placed(k cache.Key) *programPlacement {
	if uint(k) < uint(len(is.placement)) && is.placement[k].replicas != 0 {
		return &is.placement[k]
	}
	return nil
}

// placementOf returns p's placement, or nil when p is not placed.
func (is *IndexServer) placementOf(p trace.ProgramID) *programPlacement {
	return is.placed(is.cache.Key(p))
}

// plannedPlacement resolves p's placement for the plan-upgrade check.
// Strategies without a planner stage never upgrade, so the common LFU/
// LRU/oracle session path skips the placement lookup entirely.
func plannedPlacement(is *IndexServer, p trace.ProgramID) *programPlacement {
	if is.planner == nil {
		return nil
	}
	return is.placementOf(p)
}

// sessionKey resolves a session's memoized program-table key: the memo
// when its generation still validates, else one lookup, which refreshes
// the memo. It returns cache.NoKey when p holds no live state.
func (is *IndexServer) sessionKey(p trace.ProgramID, key *cache.Key, gen *uint32) cache.Key {
	if is.cache.Live(*key, *gen) {
		return *key
	}
	k := is.cache.Key(p)
	if k != cache.NoKey {
		*key, *gen = k, is.cache.Generation(k)
	}
	return k
}

// placeAll reserves storage for every cached segment of a newly admitted
// program, one copy per replica (the FillImmediate model). Segments that
// find no peer with space stay unplaced and miss until churn frees room.
func (is *IndexServer) placeAll(p trace.ProgramID, pp *programPlacement) {
	length := is.lengths(p)
	peers := is.nb.Peers()
	for idx := range pp.segs() {
		size := segment.SizeOf(length, idx)
		for r := 0; r < int(pp.replicas); r++ {
			pi := is.pickFillPeer(size, false, pp.copies(idx))
			if pi < 0 {
				break
			}
			if !peers[pi].Reserve(size) {
				break
			}
			is.addCopy(pp, idx, pi)
		}
	}
}

// ServeOutcome describes how one segment request was served.
type ServeOutcome int

// Segment service outcomes.
const (
	// ServedByPeer: cache hit, a holding peer broadcasts (Figure 5).
	ServedByPeer ServeOutcome = iota + 1
	// MissNotCached: the program is not in the neighborhood cache.
	MissNotCached
	// MissUnplaced: the program is cached but this segment has no copy
	// on any peer (not yet filled, beyond the cached prefix, or the
	// placement table and session disagree).
	MissUnplaced
	// MissPeerBusy: every peer holding the segment is already active on
	// its maximum number of streams, which triggers a miss (Section
	// V-C).
	MissPeerBusy
)

// String names the outcome.
func (o ServeOutcome) String() string {
	switch o {
	case ServedByPeer:
		return "hit"
	case MissNotCached:
		return "miss-not-cached"
	case MissUnplaced:
		return "miss-unplaced"
	case MissPeerBusy:
		return "miss-peer-busy"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// IsMiss reports whether the outcome required the central server.
func (o ServeOutcome) IsMiss() bool { return o != ServedByPeer }

// ServeSegment resolves one segment request. On a hit it claims a stream
// slot on a holding peer and returns it so the caller can schedule the
// release when the broadcast ends. With replication, copies are tried in
// placement order and the first available peer serves.
func (is *IndexServer) ServeSegment(p trace.ProgramID, idx int) (ServeOutcome, *hfc.SetTopBox) {
	return is.serveSegment(is.placementOf(p), idx)
}

// serveSegment is ServeSegment on a resolved placement (nil: not
// cached).
func (is *IndexServer) serveSegment(pp *programPlacement, idx int) (ServeOutcome, *hfc.SetTopBox) {
	if pp == nil {
		return MissNotCached, nil
	}
	if !pp.has(idx) {
		return MissUnplaced, nil
	}
	copies := pp.copies(idx)
	if len(copies) == 0 {
		return MissUnplaced, nil
	}
	peers := is.nb.Peers()
	for _, pi := range copies {
		peer := peers[pi]
		if !is.opts.EnforceStreamLimit {
			peer.ForceOpenStream()
			return ServedByPeer, peer
		}
		if peer.OpenStream() {
			return ServedByPeer, peer
		}
	}
	return MissPeerBusy, nil
}

// TryFill places one more copy of segment idx of a cached program on a
// peer reading the in-flight miss broadcast (Figure 4, step 4). It
// returns the filling peer (holding an open stream the caller must
// release at broadcast end), or nil when no fill happened.
func (is *IndexServer) TryFill(p trace.ProgramID, idx int) *hfc.SetTopBox {
	if !is.fillsOnBroadcast() {
		return nil
	}
	return is.tryFill(p, is.placementOf(p), idx)
}

// fillsOnBroadcast reports whether complete miss broadcasts may fill.
func (is *IndexServer) fillsOnBroadcast() bool {
	return is.opts.Fill == FillOnBroadcast && is.opts.BroadcastFill
}

// tryFill is TryFill on p's resolved placement (nil: not cached).
func (is *IndexServer) tryFill(p trace.ProgramID, pp *programPlacement, idx int) *hfc.SetTopBox {
	if pp == nil || !pp.has(idx) {
		return nil
	}
	copies := pp.copies(idx)
	if len(copies) >= int(pp.replicas) {
		return nil
	}
	size := segment.SizeOf(is.lengths(p), idx)
	pi := is.pickFillPeer(size, true, copies)
	if pi < 0 {
		return nil
	}
	peer := is.nb.Peers()[pi]
	if !peer.Reserve(size) {
		return nil
	}
	if is.opts.EnforceStreamLimit {
		if !peer.OpenStream() {
			peer.Release(size)
			return nil
		}
	} else {
		peer.ForceOpenStream()
	}
	is.addCopy(pp, idx, pi)
	return peer
}

// pickFillPeer selects the storing peer for a new segment copy — the
// index server's load-balancing placement (Section IV-B.1). Peers are
// tried in rotation starting after the last placement, which balances
// storage across equal contributions in O(1) amortized instead of a full
// most-free-space scan per fill. needStream additionally requires a free
// stream slot (broadcast-fill absorbs the segment off the wire); exclude
// lists peer indexes already holding a copy. It returns the chosen
// peer's index in the neighborhood, or -1 when no peer qualifies.
func (is *IndexServer) pickFillPeer(size units.ByteSize, needStream bool, exclude []int32) int32 {
	// A memoized storage failure rules this placement out up front: if
	// no peer at all had that much free space, no subset of peers has it
	// for an equal or larger segment, whatever the stream constraint.
	if is.fillFailValid && size >= is.fillFailSize {
		return -1
	}
	peers := is.nb.Peers()
	n := len(peers)
	for i := 0; i < n; i++ {
		pi := int32((is.fillCursor + i) % n)
		peer := peers[pi]
		if peer.StorageFree() < size {
			continue
		}
		if needStream && is.opts.EnforceStreamLimit && !peer.CanStream() {
			continue
		}
		if containsIdx(exclude, pi) {
			continue
		}
		is.fillCursor = (is.fillCursor + i + 1) % n
		return pi
	}
	// Memoize only unconditional storage failures: with exclusions or a
	// stream requirement a peer may have had the space and been skipped.
	if !needStream && len(exclude) == 0 && (!is.fillFailValid || size < is.fillFailSize) {
		is.fillFailSize = size
		is.fillFailValid = true
	}
	return -1
}

// fillSpaceFreed clears the placement-failure memo: a peer's free space
// grew, so earlier failed scans say nothing about the next one.
func (is *IndexServer) fillSpaceFreed() {
	is.fillFailValid = false
}

func containsIdx(s []int32, v int32) bool {
	for _, e := range s {
		if e == v {
			return true
		}
	}
	return false
}

// releasePlacement frees every placed copy of the program under key k
// (cache.NoKey allowed) and unpins the key.
func (is *IndexServer) releasePlacement(k cache.Key) {
	pp := is.placed(k)
	if pp == nil {
		return
	}
	length := is.lengths(is.cache.Program(k))
	peers := is.nb.Peers()
	freed := false
	for idx := range pp.segs() {
		size := segment.SizeOf(length, idx)
		for _, pi := range pp.copies(idx) {
			peers[pi].Release(size)
			freed = freed || size > 0
		}
	}
	if freed {
		is.fillSpaceFreed()
	}
	*pp = programPlacement{}
	is.cache.Unpin(k)
}

// placedKeys returns the keys of every placed program, ordered by
// program: keys are arrival-ordered, so anything that walks placements
// for results or exported state walks them in program order.
func (is *IndexServer) placedKeys() []cache.Key {
	var keys []cache.Key
	for k := range is.placement {
		if is.placement[k].replicas != 0 {
			keys = append(keys, cache.Key(k))
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		return is.cache.Program(keys[i]) < is.cache.Program(keys[j])
	})
	return keys
}

// PlacedSegments returns how many segments of p have at least one copy.
func (is *IndexServer) PlacedSegments(p trace.ProgramID) int {
	pp := is.placementOf(p)
	if pp == nil {
		return 0
	}
	n := 0
	for idx := range pp.segs() {
		if len(pp.copies(idx)) > 0 {
			n++
		}
	}
	return n
}

// StoredBytes returns the bytes actually reserved on peers (placed
// copies only; the cache's byte accounting charges the full admission
// size up front).
func (is *IndexServer) StoredBytes() units.ByteSize {
	var total units.ByteSize
	for _, peer := range is.nb.Peers() {
		total += peer.StorageUsed()
	}
	return total
}
