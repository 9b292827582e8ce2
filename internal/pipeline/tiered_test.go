package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"mpsched/internal/alloc"
	"mpsched/internal/dfg"
	"mpsched/internal/sched"
	"mpsched/internal/store"
	"mpsched/internal/workloads"
)

// fullSpec is one full compile of g: through allocation, with trace.
func fullSpec(g *dfg.Graph) Spec {
	return NewSpec(g,
		WithSelect(selectCfg(4)),
		WithSchedule(sched.Options{KeepTrace: true}),
		WithArch(alloc.DefaultArch()),
	)
}

// compileOnce runs fullSpec(g) against the given cache and returns the
// report.
func compileOnce(t *testing.T, cache ResultCache, g *dfg.Graph) *Report {
	t.Helper()
	rep, err := NewCompiler(Options{Cache: cache}).Compile(context.Background(), fullSpec(g))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return rep
}

// entryBytes canonicalises a report into the disk codec's byte form —
// the strongest equality we have for compile artifacts.
func entryBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := entryCodec{}.Append(nil, &cacheEntry{
		selection: rep.Selection,
		schedule:  rep.Schedule,
		program:   rep.Program,
		census:    rep.Census,
		span:      rep.Span,
		swept:     rep.SweptSpans,
	})
	if err != nil {
		t.Fatalf("encode report: %v", err)
	}
	return b
}

func TestEntryCodecRoundTrip(t *testing.T) {
	rep := compileOnce(t, nil, workloads.ThreeDFT())
	e := &cacheEntry{
		selection: rep.Selection,
		schedule:  rep.Schedule,
		program:   rep.Program,
		census:    rep.Census,
		span:      rep.Span,
		swept:     rep.SweptSpans,
	}
	enc, err := entryCodec{}.Append(nil, e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := entryCodec{}.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Re-encoding the decoded entry must reproduce the bytes exactly —
	// the bit-stable artifact contract.
	enc2, err := entryCodec{}.Append(nil, dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("decode→encode did not round-trip bit-identically")
	}
	// Spot-check semantic fields survived.
	if dec.span != e.span || dec.swept != e.swept {
		t.Fatalf("span/swept: got %d/%v want %d/%v", dec.span, dec.swept, e.span, e.swept)
	}
	if dec.schedule.Length() != e.schedule.Length() {
		t.Fatalf("schedule length: got %d want %d", dec.schedule.Length(), e.schedule.Length())
	}
	if len(dec.selection.Steps) != len(e.selection.Steps) {
		t.Fatalf("selection steps: got %d want %d", len(dec.selection.Steps), len(e.selection.Steps))
	}
	if dec.program.Stats != e.program.Stats {
		t.Fatalf("program stats: got %+v want %+v", dec.program.Stats, e.program.Stats)
	}
	// Decoded schedule shares the selection's pattern set, as live
	// entries do.
	if dec.schedule.Patterns != dec.selection.Patterns {
		t.Fatal("decoded schedule must share the selection's pattern set")
	}
}

func TestTieredCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	g := workloads.ThreeDFT()

	cache1, err := NewTieredCache(0, 0, dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	cold := compileOnce(t, cache1, g)
	if cold.CacheHit {
		t.Fatal("cold compile reported a cache hit")
	}
	if err := cache1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh tiered cache over the same directory serves the
	// compile from disk.
	cache2, err := NewTieredCache(0, 0, dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	warm := compileOnce(t, cache2, g)
	if !warm.CacheHit {
		t.Fatal("compile after restart missed the persisted store")
	}
	if !bytes.Equal(entryBytes(t, cold), entryBytes(t, warm)) {
		t.Fatal("disk-served compile differs from the original")
	}
}

// TestTieredEquivalence pins the old-vs-new acceptance criterion at the
// pipeline layer: compiles served through the tiered store are
// bit-identical to the in-memory-cache path, across the workload catalog.
func TestTieredEquivalence(t *testing.T) {
	graphs := []*dfg.Graph{
		workloads.ThreeDFT(),
		workloads.Fig4Small(),
	}
	for _, g := range graphs {
		mem := NewShardedCache(0, 0)
		tiered, err := NewTieredCache(0, 0, t.TempDir(), 0, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		memCold := compileOnce(t, mem, g)
		memWarm := compileOnce(t, mem, g)
		tierCold := compileOnce(t, tiered, g)
		tierWarm := compileOnce(t, tiered, g)
		want := entryBytes(t, memCold)
		for name, rep := range map[string]*Report{
			"memory warm": memWarm, "tiered cold": tierCold, "tiered warm": tierWarm,
		} {
			if !memWarm.CacheHit || !tierWarm.CacheHit {
				t.Fatalf("%s: warm path missed the cache", g.Name)
			}
			if !bytes.Equal(want, entryBytes(t, rep)) {
				t.Fatalf("%s: %s compile differs from memory-cache path", g.Name, name)
			}
		}
		tiered.Close()
	}
}

// rawCodec stores entry bytes verbatim, so a test can plant records of
// any layout in a disk tier and read back what the pipeline wrote.
type rawCodec struct{}

func (rawCodec) Append(buf []byte, v []byte) ([]byte, error) { return append(buf, v...), nil }
func (rawCodec) Decode(data []byte) ([]byte, error)          { return append([]byte(nil), data...), nil }

// TestTieredV1EntryRecompiles pins the entry-version upgrade: a version 1
// record (which carried a node-signature multiset after the span) left in
// a disk tier by an older daemon is a logged miss, the compile returns the
// cold answer, and the entry is rewritten in the current layout.
func TestTieredV1EntryRecompiles(t *testing.T) {
	g := workloads.ThreeDFT()
	spec := fullSpec(g)
	key := specCacheKey(g, spec.Select.WithDefaults(), spec.Sched, spec.Arch, spec.Spans, spec.lastStage())
	cold := entryBytes(t, compileOnce(t, nil, g))

	// The v1 layout: the v2 header and span, then a non-empty sigs list,
	// then the v2 body.
	_, spanLen := binary.Varint(cold[len(entryMagic)+2:])
	head := len(entryMagic) + 2 + spanLen
	v1 := append([]byte(nil), cold[:head]...)
	v1[len(entryMagic)] = 1
	v1 = binary.AppendUvarint(v1, 2)
	v1 = binary.AppendUvarint(v1, 0x9e3779b97f4a7c15)
	v1 = binary.AppendUvarint(v1, 0xc2b2ae3d27d4eb4f)
	v1 = append(v1, cold[head:]...)

	dir := t.TempDir()
	raw, err := store.Open[[]byte](dir, 0, rawCodec{}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	raw.Put(key, v1)
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}

	var logged []string
	cache, err := NewTieredCache(0, 0, dir, 0, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := compileOnce(t, cache, g)
	if rep.CacheHit {
		t.Fatal("a version 1 entry answered the compile")
	}
	if !bytes.Equal(cold, entryBytes(t, rep)) {
		t.Fatal("compile over a version 1 entry differs from a cold compile")
	}
	if !strings.Contains(strings.Join(logged, "\n"), "unknown entry version 1") {
		t.Fatalf("version 1 entry was not logged as undecodable; log: %q", logged)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err = store.Open[[]byte](dir, 0, rawCodec{}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	got, ok := raw.Get(key)
	if !ok {
		t.Fatal("recompiled entry was not written back")
	}
	if !bytes.Equal(got, cold) {
		t.Fatalf("rewritten entry is not the current layout (version byte %d)", got[len(entryMagic)])
	}
}
