package maps

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"

	"kex/internal/kernel"
)

// maxBuckets caps a hash index's bucket array. The bucket count follows
// MaxEntries, which an object file declares, so without a cap a hostile
// map size would drive the allocation; past the cap chains grow instead.
const maxBuckets = 1 << 14

// hashIndex is the key index of the hash map types: a fixed array of
// buckets, each a chain of nodes, which Lookup walks without a lock, as the
// kernel walks its RCU-protected htab buckets. So a lookup writes nothing,
// and shards probing one shared table share no written cache line.
//
// Writers serialize on their map's mutex and publish with atomic stores. A
// node is complete before its bucket or predecessor points at it, and after
// that only its next link changes. An unlinked node keeps its next link, so
// a reader standing on it still walks to the end of its chain; the garbage
// collector frees it once no reader holds it. The value region a node names
// is unmapped when the node is unlinked, so an address kept past Delete
// faults, as it did before.
type hashIndex struct {
	buckets []atomic.Pointer[hashNode]
	shift   uint         // 64 - log2(len(buckets)): a hash's top bits pick its bucket
	keySize int          // the map's key size
	word    bool         // keySize <= 8: keys are packed into hashNode.word
	salt    uint64       // randomizes the buckets of word keys
	seed    maphash.Seed // hashes longer keys

	// n counts the live nodes; the owning map's mutex guards it.
	n int
}

// hashNode is one key of a hashIndex and the value region it names.
type hashNode struct {
	next   atomic.Pointer[hashNode]
	hash   uint64
	word   uint64 // the key, little-endian, when the index packs keys
	key    string // the key otherwise
	region *kernel.Region

	// older and newer link an LRU map's recency list, under its mutex.
	older, newer *hashNode
}

func newHashIndex(keySize, maxEntries int) hashIndex {
	nb := 1
	if maxEntries > 1 {
		nb = 1 << bits.Len(uint(min(maxEntries, maxBuckets)-1))
	}
	return hashIndex{
		buckets: make([]atomic.Pointer[hashNode], nb),
		shift:   uint(64 - bits.TrailingZeros(uint(nb))),
		keySize: keySize,
		word:    keySize <= 8,
		salt:    rand.Uint64(),
		seed:    maphash.MakeSeed(),
	}
}

// packKey reads a key of 8 bytes or fewer as one little-endian word. Keys
// of one map all have its key size, so equal words mean equal keys.
func packKey(key []byte) uint64 {
	switch len(key) {
	case 8:
		return binary.LittleEndian.Uint64(key)
	case 4:
		return uint64(binary.LittleEndian.Uint32(key))
	}
	var w uint64
	for i, b := range key {
		w |= uint64(b) << (8 * i)
	}
	return w
}

// hashWord spreads a packed key over 64 bits (Fibonacci hashing), so its
// top bits pick the bucket.
func (ix *hashIndex) hashWord(w uint64) uint64 {
	return (w ^ ix.salt) * 0x9e3779b97f4a7c15
}

// find returns the node of key, or nil. It takes no lock and writes
// nothing; len(key) must be the index's key size.
func (ix *hashIndex) find(key []byte) *hashNode {
	if ix.word {
		w := packKey(key)
		for n := ix.buckets[ix.hashWord(w)>>ix.shift].Load(); n != nil; n = n.next.Load() {
			if n.word == w {
				return n
			}
		}
		return nil
	}
	h := maphash.Bytes(ix.seed, key)
	for n := ix.buckets[h>>ix.shift].Load(); n != nil; n = n.next.Load() {
		if n.hash == h && n.key == string(key) {
			return n
		}
	}
	return nil
}

// insert publishes a node for a key that is not in the index. The caller
// holds the map's mutex.
func (ix *hashIndex) insert(key []byte, r *kernel.Region) *hashNode {
	n := &hashNode{region: r}
	if ix.word {
		n.word = packKey(key)
		n.hash = ix.hashWord(n.word)
	} else {
		n.key = string(key)
		n.hash = maphash.Bytes(ix.seed, key)
	}
	head := &ix.buckets[n.hash>>ix.shift]
	n.next.Store(head.Load())
	head.Store(n)
	ix.n++
	return n
}

// remove unlinks a node of the index. The caller holds the map's mutex.
func (ix *hashIndex) remove(n *hashNode) {
	link := &ix.buckets[n.hash>>ix.shift]
	for cur := link.Load(); cur != n; cur = cur.next.Load() {
		link = &cur.next
	}
	link.Store(n.next.Load())
	ix.n--
}

// keyOf returns a copy of a node's key.
func (ix *hashIndex) keyOf(n *hashNode) []byte {
	if !ix.word {
		return []byte(n.key)
	}
	k := make([]byte, ix.keySize)
	for i := range k {
		k[i] = byte(n.word >> (8 * i))
	}
	return k
}

// keys returns a copy of every key. The caller holds the map's mutex.
func (ix *hashIndex) keys() [][]byte {
	out := make([][]byte, 0, ix.n)
	for i := range ix.buckets {
		for n := ix.buckets[i].Load(); n != nil; n = n.next.Load() {
			out = append(out, ix.keyOf(n))
		}
	}
	return out
}
