// Package cache implements the caching strategies of Section IV-B.2 as
// a composable policy pipeline: a Scorer values programs for retention
// (windowed frequency, future knowledge, global popularity, recency
// variants), an optional Admission stage filters which misses may enter
// the cache, a Tiebreak orders equal scores, and an optional Planner
// chooses how many segments and replicas of each program to keep. A
// Pipeline assembles stages into the Policy contract driven by the
// capacity-enforcing Cache container; the paper's fused LRU, LFU,
// Oracle, and global-LFU implementations remain as the bit-identical
// equivalence reference.
//
// The index server admits and evicts at program granularity (the
// paper's model); segment placement across peers is handled by the core
// package on top of the admission decisions and placement plans made
// here.
//
// # Program table
//
// A Cache resolves each request's program once, to a dense Key in its
// program table, and keeps per-program state on the request path in
// slices indexed by Key: charged sizes, the victim-order nodes, the
// windowed counts of the built-in frequency, size-frequency and oracle
// scorers, and (through Pin) the core index server's placements. With a
// Pipeline policy the table is the pipeline's own, shared by the Cache,
// the victim order and the built-in scorer.
//
// The table holds exactly the programs with live state: cached, tracked
// in a victim order, holding a nonzero windowed count in a built-in
// scorer, or pinned by the cache's owner. It never holds the catalog,
// so every keyed slice is sized by live state. When a key's last holder
// lets go, the key is recycled and its generation bumped; a (key,
// generation) pair memoized earlier then fails Live, and its holder
// falls back to one lookup.
//
// Keys are handed out in arrival order, which differs after a restore
// or a fork, so nothing iterates keys to produce a result or exported
// state: eviction order comes from the victim-order lists, and the core
// package exports placements in ProgramID order. Custom stages and the
// recency2, second-touch and global-popularity stages keep their own
// ProgramID maps; the fused v1 reference policies key their victim
// orders by private tables.
package cache

import (
	"fmt"
	"time"

	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// alwaysAdmit is the candidate value meaning "admit regardless of victim
// values" (used by LRU, where a fresh access always wins).
const alwaysAdmit = int(^uint(0) >> 1) // math.MaxInt

// Policy is a cache replacement strategy at program granularity. The Cache
// container drives it; implementations maintain whatever bookkeeping their
// strategy needs (recency lists, frequency windows, future indexes).
//
// Time must advance monotonically across calls.
type Policy interface {
	// Name identifies the strategy ("lru", "lfu", "oracle", ...).
	Name() string

	// Advance moves the policy's clock to now, processing any pending
	// decay (history-window expiry, oracle window slide, publications).
	Advance(now time.Duration)

	// OnRequest records that p was requested at now, before the hit or
	// miss is resolved. For cached programs this refreshes recency.
	OnRequest(p trace.ProgramID, now time.Duration)

	// CandidateValue returns the retention value of the (uncached)
	// program p for admission comparison against victims.
	CandidateValue(p trace.ProgramID, now time.Duration) int

	// OnAdmit adds p to the policy's cached set.
	OnAdmit(p trace.ProgramID, now time.Duration)

	// OnEvict removes p from the policy's cached set.
	OnEvict(p trace.ProgramID)

	// EvictionOrder yields cached programs from least to most valuable
	// (with least-recently-used tie-break) until yield returns false.
	EvictionOrder(yield func(p trace.ProgramID, value int) bool)
}

// AccessResult reports what a cache access did.
type AccessResult struct {
	// Hit is true when the program was already cached.
	Hit bool
	// Admitted is true when a missed program was added to the cache.
	Admitted bool
	// Evicted lists programs removed to make room, in eviction order.
	Evicted []trace.ProgramID
}

// Cache is a byte-capacity cache of whole programs governed by a Policy.
// It is the index server's view of the neighborhood's pooled storage: the
// sum of the space every peer contributes (Section IV-B.3).
//
// A Cache resolves each requested program once, to a key in its program
// table; per-program state is kept in slices indexed by that key. With a
// Pipeline policy the table is the pipeline's own, shared with its
// victim order and built-in scorer.
type Cache struct {
	policy   Policy
	kp       keyedPolicy
	admitter Admitter // policy's optional admission filter, nil if none
	capacity units.ByteSize
	used     units.ByteSize
	tab      *programTable
	sizes    []units.ByteSize // charged size by key, valid while cached
	n        int              // cached programs

	// victims is a buffer Access reuses for victim keys.
	victims []Key

	hits   uint64
	misses uint64
}

// keyedPolicy is the Cache's view of its policy: the Policy contract
// with each program's key in the cache's table resolved once per
// request. A Pipeline implements it natively; any other Policy is
// driven through policyAdapter.
type keyedPolicy interface {
	Advance(now time.Duration)
	// request records the request and returns p's key afterwards
	// (NoKey when p holds no live state).
	request(p trace.ProgramID, now time.Duration) Key
	candidate(k Key, p trace.ProgramID, now time.Duration) int
	admit(k Key, p trace.ProgramID, now time.Duration)
	evict(k Key, p trace.ProgramID)
	ascendKeys(yield func(k Key, p trace.ProgramID, value int) bool)
}

// policyAdapter drives a Policy that is not a Pipeline through the
// keyed interface: the Cache's table holds only its own contents, and
// programs are resolved there after each policy call.
type policyAdapter struct {
	Policy
	tab *programTable
}

func (a policyAdapter) request(p trace.ProgramID, now time.Duration) Key {
	a.OnRequest(p, now)
	return a.tab.lookup(p)
}

func (a policyAdapter) candidate(_ Key, p trace.ProgramID, now time.Duration) int {
	return a.CandidateValue(p, now)
}

func (a policyAdapter) admit(_ Key, p trace.ProgramID, now time.Duration) { a.OnAdmit(p, now) }
func (a policyAdapter) evict(_ Key, p trace.ProgramID)                    { a.OnEvict(p) }

func (a policyAdapter) ascendKeys(yield func(k Key, p trace.ProgramID, value int) bool) {
	a.EvictionOrder(func(p trace.ProgramID, v int) bool {
		return yield(a.tab.lookup(p), p, v)
	})
}

// New returns an empty cache with the given byte capacity and policy.
func New(capacity units.ByteSize, policy Policy) (*Cache, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %v", capacity)
	}
	if policy == nil {
		return nil, fmt.Errorf("cache: nil policy")
	}
	c := &Cache{policy: policy, capacity: capacity}
	c.admitter, _ = policy.(Admitter)
	if pl, ok := policy.(*Pipeline); ok {
		if pl.admission == nil {
			c.admitter = nil // stage absent: skip the per-miss filter call
		}
		c.kp, c.tab = pl, pl.tab
	} else {
		c.tab = newProgramTable()
		c.kp = policyAdapter{Policy: policy, tab: c.tab}
	}
	return c, nil
}

// Capacity returns the configured byte capacity.
func (c *Cache) Capacity() units.ByteSize { return c.capacity }

// Used returns the bytes currently cached.
func (c *Cache) Used() units.ByteSize { return c.used }

// Len returns the number of cached programs.
func (c *Cache) Len() int { return c.n }

// Contains reports whether p is cached.
func (c *Cache) Contains(p trace.ProgramID) bool {
	_, cached := c.cachedKey(p)
	return cached
}

// cachedKey returns p's key (NoKey when p holds none) and whether p is
// cached.
func (c *Cache) cachedKey(p trace.ProgramID) (Key, bool) {
	k := c.tab.lookup(p)
	return k, c.tab.held(k, holdCached)
}

// Hits and Misses return the access counters.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.misses }

// HitRatio returns hits / (hits + misses), or 0 before any access.
func (c *Cache) HitRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Policy returns the governing policy.
func (c *Cache) Policy() Policy { return c.policy }

// Access processes a request for program p of the given stored size at
// time now, applying the strategy's admission and eviction rules.
func (c *Cache) Access(p trace.ProgramID, size units.ByteSize, now time.Duration) AccessResult {
	res, _ := c.AccessKey(p, size, now)
	return res
}

// AccessKey is Access that also returns p's key after the access, or
// NoKey when p holds no live state. A key returned for an admitted
// program stays live at least while p is cached.
func (c *Cache) AccessKey(p trace.ProgramID, size units.ByteSize, now time.Duration) (AccessResult, Key) {
	if size < 0 {
		panic(fmt.Sprintf("cache: negative program size for %d", p))
	}
	c.kp.Advance(now)
	k := c.kp.request(p, now)

	if c.tab.held(k, holdCached) {
		c.hits++
		return AccessResult{Hit: true}, k
	}
	c.misses++

	if size == 0 || size > c.capacity {
		return AccessResult{}, k
	}

	// Policies implementing the optional Admitter extension can refuse
	// admission outright (bypass-on-first-touch, size caps).
	if c.admitter != nil && !c.admitter.ShouldAdmit(p, size, now) {
		return AccessResult{}, k
	}

	// Fast path: fits without eviction.
	if c.used+size <= c.capacity {
		return AccessResult{Admitted: true}, c.admit(k, p, size, now)
	}

	// Collect victims in eviction order until the candidate fits. The
	// candidate is admitted only if it is at least as valuable as every
	// victim it displaces (ties admit: a fresh access wins LRU
	// tie-breaks by definition). p is uncached, so its key (held by a
	// count or a pin, if any) survives the victims' evictions.
	candidate := c.kp.candidate(k, p, now)
	need := c.used + size - c.capacity
	var victims []trace.ProgramID
	var freed units.ByteSize
	ok := true
	c.victims = c.victims[:0]
	c.kp.ascendKeys(func(vk Key, v trace.ProgramID, value int) bool {
		if value > candidate {
			ok = false
			return false
		}
		if !c.tab.held(vk, holdCached) {
			panic(fmt.Sprintf("cache: policy %q yielded uncached victim %d", c.policy.Name(), v))
		}
		victims = append(victims, v)
		c.victims = append(c.victims, vk)
		freed += c.sizes[vk]
		return freed < need
	})
	if !ok || freed < need {
		return AccessResult{}, k
	}
	for i, vk := range c.victims {
		c.evictKey(vk, victims[i])
	}
	return AccessResult{Admitted: true, Evicted: victims}, c.admit(k, p, size, now)
}

// Evict forcibly removes p (used when external constraints, e.g. peer
// storage reshuffling, require dropping a program). It reports whether p
// was cached.
func (c *Cache) Evict(p trace.ProgramID) bool {
	k, cached := c.cachedKey(p)
	if !cached {
		return false
	}
	c.evictKey(k, p)
	return true
}

// ChargedSize returns the admission size p was charged, if cached.
func (c *Cache) ChargedSize(p trace.ProgramID) (units.ByteSize, bool) {
	k, cached := c.cachedKey(p)
	if !cached {
		return 0, false
	}
	return c.sizes[k], true
}

// Restore re-admits a program at the given charged size without
// recording a new access — the rollback half of a failed placement-plan
// upgrade (see the index server): the program was evicted to attempt a
// deeper plan, the attempt lost the victim comparison, and the old
// footprint goes back exactly as it was. The size must fit in the free
// capacity (it just vacated it) and p must not be cached.
func (c *Cache) Restore(p trace.ProgramID, size units.ByteSize, now time.Duration) {
	k, cached := c.cachedKey(p)
	if cached {
		panic(fmt.Sprintf("cache: restore of cached program %d", p))
	}
	if size < 0 || c.used+size > c.capacity {
		panic(fmt.Sprintf("cache: restore of %d bytes does not fit (%v of %v used)", size, c.used, c.capacity))
	}
	c.admit(k, p, size, now)
}

// Contents returns the cached programs in eviction order (least valuable
// first).
func (c *Cache) Contents() []trace.ProgramID {
	out := make([]trace.ProgramID, 0, c.n)
	c.kp.ascendKeys(func(_ Key, p trace.ProgramID, _ int) bool {
		out = append(out, p)
		return true
	})
	return out
}

// The program table, for the cache's owner: the core index server keys
// its per-program placements by the same table, pinning a program's key
// for as long as it holds placement state.

// Key returns p's key, or NoKey when p holds no live state.
func (c *Cache) Key(p trace.ProgramID) Key { return c.tab.lookup(p) }

// Generation returns the live key k's current generation: the pair
// (k, Generation(k)) validates through Live until k is recycled.
func (c *Cache) Generation(k Key) uint32 { return c.tab.slots[k].gen }

// Live reports whether a (key, generation) pair memoized while the key
// was live still names the same program.
func (c *Cache) Live(k Key, gen uint32) bool { return c.tab.live(k, gen) }

// Program returns the program the live key k stands for.
func (c *Cache) Program(k Key) trace.ProgramID { return c.tab.program(k) }

// Pin keeps the live key k from being recycled until Unpin, whatever
// happens to its program's cache state.
func (c *Cache) Pin(k Key) { c.tab.slots[k].holds |= holdPinned }

// Unpin releases Pin; the key is recycled if nothing else holds it.
func (c *Cache) Unpin(k Key) { c.tab.release(k, holdPinned) }

// admit charges p at size under its key k (NoKey when p holds none),
// tells the policy, and returns the key.
func (c *Cache) admit(k Key, p trace.ProgramID, size units.ByteSize, now time.Duration) Key {
	k = c.charge(k, p, size)
	c.kp.admit(k, p, now)
	return k
}

// charge adds p at size to the contents under its key k (NoKey when p
// holds none) and returns the key.
func (c *Cache) charge(k Key, p trace.ProgramID, size units.ByteSize) Key {
	k = c.tab.hold(k, p, holdCached)
	c.sizes = GrowKeyed(c.sizes, k)
	c.sizes[k] = size
	c.used += size
	c.n++
	return k
}

// evictKey uncharges the cached program p under its key k. The policy
// lets go first, so the key is still live while it does.
func (c *Cache) evictKey(k Key, p trace.ProgramID) {
	c.used -= c.sizes[k]
	c.n--
	c.kp.evict(k, p)
	c.tab.release(k, holdCached)
}
