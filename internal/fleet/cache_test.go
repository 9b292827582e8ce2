package fleet

import (
	"testing"

	"mpsched/internal/wire"
)

func l2Resp(name string, cycles int) *wire.CompileResponse {
	return &wire.CompileResponse{
		Name:     name,
		Nodes:    24,
		Cycles:   cycles,
		Patterns: []string{"[a b]", "[c]"},
		CacheHit: true,
		Span:     1,
	}
}

func TestL2CodecRoundTrip(t *testing.T) {
	e := l2Entry{resp: l2Resp("3dft", 17), owner: 3}
	buf, err := l2Codec{}.Append(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := l2Codec{}.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.owner != 3 {
		t.Fatalf("owner = %d, want 3", dec.owner)
	}
	r := dec.resp
	if r.Name != "3dft" || r.Cycles != 17 || !r.CacheHit || len(r.Patterns) != 2 {
		t.Fatalf("response did not round-trip: %+v", r)
	}
}

// TestL2KeyBytesPinned pins the L2 key layout. The ring routes by the
// key's hash, so a change to these bytes moves requests to backends
// that never compiled them and orphans every persisted L2 entry.
func TestL2KeyBytesPinned(t *testing.T) {
	got := l2Key("fp", &wire.CompileRequest{
		Name: "n", Workload: "3dft", StopAfter: "select", Spans: []int{0, 1},
		Select: &wire.SelectConfig{C: 5, Pdef: 4, Span: 1, Epsilon: 0.5, Alpha: 20},
		Sched:  &wire.SchedConfig{Priority: "F1", Tie: "asc", Seed: 7},
	})
	if want := "fp|n|3dft|5,4,1,0.5,20|F1,asc,7,0|select||0,1,"; got != want {
		t.Fatalf("l2Key = %q, want %q", got, want)
	}
}

// TestL2PersistsAcrossReopen is the router-restart story at the cache
// level: a persistent L2 reopened over the same directory still serves
// the responses the previous router cached.
func TestL2PersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c1, err := newL2(16, dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	c1.put("k1", l2Resp("a", 5), 1)
	c1.put("k2", l2Resp("b", 9), 2)
	if err := c1.close(); err != nil {
		t.Fatal(err)
	}

	c2, err := newL2(16, dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.close()
	resp, owner, ok := c2.get("k2")
	if !ok || owner != 2 || resp.Name != "b" || resp.Cycles != 9 {
		t.Fatalf("reopened L2 lost k2: ok=%v owner=%d resp=%+v", ok, owner, resp)
	}
	if got := c2.entries(); got < 2 {
		t.Fatalf("entries = %d, want ≥ 2", got)
	}
	if len(c2.tiers()) != 2 {
		t.Fatalf("persistent L2 must report two tiers, got %v", c2.tiers())
	}

	// Ownership handover still works on promoted entries.
	c2.setOwner("k2", 7)
	if _, owner, _ := c2.get("k2"); owner != 7 {
		t.Fatalf("setOwner did not stick: owner = %d", owner)
	}
}

func TestL2NilReceiverSafe(t *testing.T) {
	var c *l2Cache
	if _, _, ok := c.get("k"); ok {
		t.Fatal("nil L2 returned a hit")
	}
	c.put("k", l2Resp("x", 1), 0)
	c.setOwner("k", 1)
	if c.entries() != 0 || c.tiers() != nil || c.close() != nil {
		t.Fatal("nil L2 must be inert")
	}
}
