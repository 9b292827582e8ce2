package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"mpsched/internal/store"
	"mpsched/internal/wire"
)

// l2Cache is the router's tier of the fleet's two-tier cache: a bounded
// store of recent compile responses keyed by the full request identity
// (fingerprint + every compile parameter), each tagged with the backend
// that produced it. It is not consulted on the hot path — that would
// turn the router into a cache server and the backends' L1s would go
// cold — it exists for topology changes: when the ring moves a key to a
// new owner, the first request is served from here (the old owner's
// work) while ownership hands over, and when every replica is down it
// is the last resort before a 503.
//
// Backed by internal/store: an in-memory LRU tier, optionally over a
// persistent disk tier (Options.StoreDir) so a router restart keeps the
// fleet's shared responses warm.
type l2Cache struct {
	s      store.Store[l2Entry]
	served atomic.Int64 // responses actually served from L2
}

type l2Entry struct {
	resp  *wire.CompileResponse
	owner int
}

// DefaultL2Entries bounds the router's shared response cache. Responses
// for 64-node graphs run a few KiB; 4096 entries is a few tens of MiB
// at worst and covers a storm's whole working set.
const DefaultL2Entries = 4096

const l2ShardCount = 16

// l2Codec persists an l2Entry as a varint owner index followed by the
// response in the binary wire framing — the same bytes the router
// forwards, so the disk tier inherits the wire codec's versioning. The
// owner index is only meaningful under the same backend list order; a
// reordered fleet merely pays one handover per moved key (setOwner),
// exactly as it does when the ring rebalances live.
type l2Codec struct{}

func (l2Codec) Append(buf []byte, e l2Entry) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(e.owner))
	var b bytes.Buffer
	if err := wire.Binary.EncodeResponse(&b, e.resp); err != nil {
		return nil, err
	}
	return append(buf, b.Bytes()...), nil
}

func (l2Codec) Decode(data []byte) (l2Entry, error) {
	owner, n := binary.Uvarint(data)
	if n <= 0 {
		return l2Entry{}, fmt.Errorf("fleet: bad l2 entry header")
	}
	resp := new(wire.CompileResponse)
	if err := wire.Binary.DecodeResponse(bytes.NewReader(data[n:]), resp); err != nil {
		return l2Entry{}, err
	}
	return l2Entry{resp: resp, owner: int(owner)}, nil
}

// newL2 builds the cache with room for entries responses (0 means
// DefaultL2Entries; the router passes a negative Options.L2Entries by
// keeping the cache nil — every method tolerates a nil receiver). A
// non-empty dir adds a persistent disk tier bounded at maxBytes.
func newL2(entries int, dir string, maxBytes int64, logf store.Logf) (*l2Cache, error) {
	if entries <= 0 {
		entries = DefaultL2Entries
	}
	mem := store.NewMemory[l2Entry](entries, l2ShardCount)
	if dir == "" {
		return &l2Cache{s: mem}, nil
	}
	disk, err := store.Open[l2Entry](dir, maxBytes, l2Codec{}, logf)
	if err != nil {
		return nil, err
	}
	return &l2Cache{s: store.NewTiered[l2Entry](mem, disk)}, nil
}

// get returns the cached response and the backend index that produced
// it.
func (c *l2Cache) get(key string) (*wire.CompileResponse, int, bool) {
	if c == nil {
		return nil, 0, false
	}
	e, ok := c.s.Get(key)
	return e.resp, e.owner, ok
}

// put records a response produced by owner; the store evicts LRU when
// full.
func (c *l2Cache) put(key string, resp *wire.CompileResponse, owner int) {
	if c == nil {
		return
	}
	c.s.Put(key, l2Entry{resp: resp, owner: owner})
}

// setOwner hands an entry over to a new owner — called when the ring
// moved its key, so the next request forwards to (and warms) the new
// node instead of being served stale-owner responses forever.
func (c *l2Cache) setOwner(key string, owner int) {
	if c == nil {
		return
	}
	if e, ok := c.s.Get(key); ok && e.owner != owner {
		e.owner = owner
		c.s.Put(key, e)
	}
}

// entries counts cached responses across tiers.
func (c *l2Cache) entries() int {
	if c == nil {
		return 0
	}
	return c.s.Len()
}

// tiers exposes the per-tier breakdown when the cache is persistent.
func (c *l2Cache) tiers() []store.TierStats {
	if c == nil {
		return nil
	}
	if t, ok := c.s.(store.Tiers); ok {
		return t.Tiers()
	}
	return nil
}

// close releases the disk tier, if any.
func (c *l2Cache) close() error {
	if c == nil {
		return nil
	}
	return c.s.Close()
}

// l2Key builds the full request identity for one compile: the graph
// fingerprint plus every parameter that changes the response. The shape
// mirrors pipeline's spec cache key — two requests share an entry iff
// the backend would have served the second from its own L1.
func l2Key(fp string, req *wire.CompileRequest) string {
	var b strings.Builder
	b.Grow(len(fp) + len(req.Name) + len(req.Workload) + 64)
	b.WriteString(fp)
	b.WriteByte('|')
	b.WriteString(req.Name)
	b.WriteByte('|')
	b.WriteString(req.Workload)
	b.WriteByte('|')
	if s := req.Select; s != nil {
		b.WriteString(strconv.Itoa(s.C))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(s.Pdef))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(s.Span))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(s.Epsilon, 'g', -1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(s.Alpha, 'g', -1, 64))
	}
	b.WriteByte('|')
	if s := req.Sched; s != nil {
		b.WriteString(s.Priority)
		b.WriteByte(',')
		b.WriteString(s.Tie)
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(s.Seed, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(s.SwitchPenalty, 10))
	}
	b.WriteByte('|')
	b.WriteString(req.StopAfter)
	// "||" leaves an always-empty field after the stop stage (it once
	// named a delta compile's base). The ring places requests by this
	// key's hash, so the bytes must stay as they are: a new layout would
	// move every request off the backend whose cache holds it and orphan
	// every persisted L2 entry.
	b.WriteString("||")
	for _, sp := range req.Spans {
		b.WriteString(strconv.Itoa(sp))
		b.WriteByte(',')
	}
	return b.String()
}
