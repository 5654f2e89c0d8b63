package cache

import (
	"fmt"

	"cablevod/internal/trace"
)

// bucketSet is the O(1) frequency-bucket structure a Pipeline keeps its
// victim order in: a doubly-linked list of count buckets in ascending
// order, each holding a recency-ordered doubly-linked list of cached
// programs (front = least recently used). Victim order is therefore
// (count ascending, recency ascending) — LFU with LRU tie-break, exactly
// the paper's rule.
//
// Entries are indexed by program-table key. The set shares its
// pipeline's table, so the request path reaches an entry by the key it
// already resolved; the ProgramID-keyed methods serve score sinks and
// state restore.
type bucketSet struct {
	tab   *programTable
	first *bucket
	nodes []*entryNode // by key; nil when the key's program is untracked
	n     int
	// freeNodes/freeBuckets recycle detached records through their next
	// pointers: admission/eviction churn runs for the whole simulation,
	// and allocating a fresh node per admission was measurable garbage.
	freeNodes   *entryNode
	freeBuckets *bucket
}

type bucket struct {
	count      int
	head, tail *entryNode
	prev, next *bucket
}

type entryNode struct {
	key        Key
	program    trace.ProgramID
	bucket     *bucket
	prev, next *entryNode
}

// newBucketSetOn returns an empty set keyed by tab.
func newBucketSetOn(tab *programTable) *bucketSet { return &bucketSet{tab: tab} }

func (s *bucketSet) len() int { return s.n }

func (s *bucketSet) contains(p trace.ProgramID) bool { return s.nodeOf(p) != nil }

// node returns the entry of key k (NoKey allowed), or nil when untracked.
func (s *bucketSet) node(k Key) *entryNode {
	if uint(k) < uint(len(s.nodes)) {
		return s.nodes[k]
	}
	return nil
}

// nodeOf returns p's entry, or nil when untracked.
func (s *bucketSet) nodeOf(p trace.ProgramID) *entryNode { return s.node(s.tab.lookup(p)) }

// mustNode returns p's entry; untracked programs panic.
func (s *bucketSet) mustNode(p trace.ProgramID) *entryNode {
	n := s.nodeOf(p)
	if n == nil {
		panic(fmt.Sprintf("cache: program %d not tracked", p))
	}
	return n
}

// add starts tracking p with the given count, as most recently used within
// its bucket. Adding a tracked program panics.
func (s *bucketSet) add(p trace.ProgramID, count int) { s.addKey(s.tab.lookup(p), p, count) }

// addKey is add with p's key already resolved (NoKey when p holds none).
func (s *bucketSet) addKey(k Key, p trace.ProgramID, count int) {
	if s.node(k) != nil {
		panic(fmt.Sprintf("cache: program %d already tracked", p))
	}
	k = s.tab.hold(k, p, holdTracked)
	n := s.newNode(k, p)
	s.nodes = GrowKeyed(s.nodes, k)
	s.nodes[k] = n
	s.n++
	s.place(n, count, nil, s.first, true)
}

// removeNode stops tracking an entry and releases its key.
func (s *bucketSet) removeNode(n *entryNode) {
	s.detach(n)
	s.nodes[n.key] = nil
	s.n--
	s.tab.release(n.key, holdTracked)
	s.freeNode(n)
}

// touchNode marks an entry most recently used within its current
// bucket.
func (s *bucketSet) touchNode(n *entryNode) {
	b := n.bucket
	if b.tail == n {
		return // already most recently used
	}
	// n is not the tail, so b keeps at least one other entry.
	s.unlink(n)
	s.link(b, n, true)
}

// setCount moves p to the bucket for count. Increases mark the entry most
// recently used in the target bucket (it was just accessed); decreases
// mark it least recently used (it decayed).
func (s *bucketSet) setCount(p trace.ProgramID, count int) { s.setCountNode(s.mustNode(p), count) }

// setCountNode is setCount on an already-resolved entry. The target
// bucket is searched from the entry's old position — windowed counts
// move by one, so this is O(1) where a search from the list head was
// O(buckets).
func (s *bucketSet) setCountNode(n *entryNode, count int) {
	b := n.bucket
	if b.count == count {
		return
	}
	up := count > b.count
	// The adjacent pair to search from, captured before detach can free
	// b: b's neighbours, or b itself on the side of the move when it
	// keeps other entries.
	lo, hi := b.prev, b.next
	if b.head != b.tail {
		if up {
			lo = b
		} else {
			hi = b
		}
	}
	s.detach(n)
	s.place(n, count, lo, hi, up)
}

// ascend calls yield for every tracked program in victim order (count
// ascending, least recently used first) until yield returns false. The
// structure must not be mutated during iteration.
func (s *bucketSet) ascend(yield func(p trace.ProgramID, count int) bool) {
	for b := s.first; b != nil; b = b.next {
		for n := b.head; n != nil; n = n.next {
			if !yield(n.program, b.count) {
				return
			}
		}
	}
}

// ascendKeys is ascend yielding keys.
func (s *bucketSet) ascendKeys(yield func(k Key, p trace.ProgramID, count int) bool) {
	for b := s.first; b != nil; b = b.next {
		for n := b.head; n != nil; n = n.next {
			if !yield(n.key, n.program, b.count) {
				return
			}
		}
	}
}

// place links the detached entry n into the bucket for count, creating
// it in sorted position if needed, at the tail when mru is true, else
// the head. The search starts from the adjacent buckets (lo, hi) — lo
// directly before hi, either nil at a list end — and walks toward
// count, so a caller that knows where count lies pays only the distance.
func (s *bucketSet) place(n *entryNode, count int, lo, hi *bucket, mru bool) {
	for hi != nil && hi.count < count {
		lo, hi = hi, hi.next
	}
	for lo != nil && lo.count > count {
		lo, hi = lo.prev, lo
	}
	// Now lo.count <= count <= hi.count (nil ends aside).
	var b *bucket
	switch {
	case lo != nil && lo.count == count:
		b = lo
	case hi != nil && hi.count == count:
		b = hi
	default:
		b = s.newBucket(count, lo, hi)
		if lo != nil {
			lo.next = b
		} else {
			s.first = b
		}
		if hi != nil {
			hi.prev = b
		}
	}
	s.link(b, n, mru)
}

// link adds n to bucket b: at the tail (most recently used) when mru is
// true or b is empty, else at the head (least recently used).
func (s *bucketSet) link(b *bucket, n *entryNode, mru bool) {
	n.bucket = b
	if mru || b.head == nil {
		n.prev = b.tail
		n.next = nil
		if b.tail != nil {
			b.tail.next = n
		} else {
			b.head = n
		}
		b.tail = n
	} else {
		n.next = b.head
		n.prev = nil
		b.head.prev = n
		b.head = n
	}
}

// unlink removes n from its bucket's entry list, leaving the bucket in
// place even if emptied.
func (s *bucketSet) unlink(n *entryNode) {
	b := n.bucket
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next, n.bucket = nil, nil, nil
}

// detach unlinks n from its bucket, deleting the bucket if emptied.
func (s *bucketSet) detach(n *entryNode) {
	b := n.bucket
	s.unlink(n)
	if b.head == nil {
		if b.prev != nil {
			b.prev.next = b.next
		} else {
			s.first = b.next
		}
		if b.next != nil {
			b.next.prev = b.prev
		}
		s.freeBucket(b)
	}
}

// newNode pops a recycled entry or allocates one.
func (s *bucketSet) newNode(k Key, p trace.ProgramID) *entryNode {
	if n := s.freeNodes; n != nil {
		s.freeNodes = n.next
		n.key, n.program, n.next = k, p, nil
		return n
	}
	return &entryNode{key: k, program: p}
}

// freeNode pushes a detached entry onto the recycle list.
func (s *bucketSet) freeNode(n *entryNode) {
	n.next = s.freeNodes
	s.freeNodes = n
}

// newBucket pops a recycled bucket or allocates one.
func (s *bucketSet) newBucket(count int, prev, next *bucket) *bucket {
	if b := s.freeBuckets; b != nil {
		s.freeBuckets = b.next
		b.count, b.prev, b.next = count, prev, next
		return b
	}
	return &bucket{count: count, prev: prev, next: next}
}

// freeBucket pushes an unlinked empty bucket onto the recycle list.
func (s *bucketSet) freeBucket(b *bucket) {
	b.head, b.tail, b.prev = nil, nil, nil
	b.next = s.freeBuckets
	s.freeBuckets = b
}
