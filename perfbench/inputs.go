package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"mpsched/internal/dfg"
	"mpsched/internal/wire"
	"mpsched/internal/workloads"
)

// Graph tiers, as the daemon's `mix:` corpus defines them: small graphs
// sit below the parallel census threshold (48 nodes), medium ones at or
// above it.
const (
	smallMinN, smallMaxN, smallColors    = 16, 32, 2
	mediumMinN, mediumMaxN, mediumColors = 48, 96, 3
)

// warmSetSize is how many distinct graphs warm-serve cycles through and
// mixed-serve repeats: half small, half medium.
const warmSetSize = 64

// batchJobs is the envelope size on mixed-serve; every newEvery-th job of
// a client's stream is a never-seen small graph, the rest repeat the warm
// set.
const (
	batchJobs = 16
	newEvery  = 5
)

// graph is one generated input: its reference form for the checker and
// its encoded request bodies. The program only ever sees the bodies.
type graph struct {
	ref  *refGraph
	bin  []byte // binary-codec /v1/compile body
	json []byte // JSON-codec /v1/compile body; warm-set graphs only
	// warm is the graph's warm-set index, or -1 for a never-seen graph.
	warm int
	// d is the generated graph, kept only for the warm set, which batch
	// envelopes embed again and again.
	d *dfg.Graph
}

// request is one HTTP request of a client's fixed list.
type request struct {
	path   string // "/v1/compile" or "/v1/batch"
	codec  wire.Codec
	body   []byte
	graphs []*graph // one per job: the envelope's jobs in index order
}

// inputs is everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	warm    []*graph     // the warm set, compiled during set-up
	clients [][]*request // one fixed request list per client
}

// generator draws graphs from one seeded stream and never returns two
// with the same fingerprint, so a "never-seen" graph is never a hit.
type generator struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

// draw generates a fresh graph with n nodes and the given color count.
func (g *generator) draw(n, colors int) (*dfg.Graph, error) {
	for {
		d, err := workloads.RandomTiered(workloads.TierConfig{Seed: g.rng.Int63(), N: n, Colors: colors})
		if err != nil {
			return nil, err
		}
		if fp := d.Fingerprint(); !g.seen[fp] {
			g.seen[fp] = true
			return d, nil
		}
	}
}

// spread returns the i-th of k node counts spaced evenly over
// [minN, maxN]. Drawing sizes from a fixed grid instead of at random
// keeps the mix of graph sizes, and so the work, the same on every seed;
// the seed chooses the graphs' shapes.
func spread(i, k, minN, maxN int) int {
	return minN + i*(maxN-minN)/(k-1)
}

// encodeGraph builds the checker's reference and the /v1/compile bodies
// of d: binary always, JSON on request.
func encodeGraph(d *dfg.Graph, withJSON bool) (*graph, error) {
	gr := &graph{ref: newRefGraph(d), warm: -1}
	req := wire.CompileRequest{Graph: d}
	var buf bytes.Buffer
	if err := wire.Binary.EncodeRequest(&buf, &req); err != nil {
		return nil, fmt.Errorf("encode binary request: %w", err)
	}
	gr.bin = bytes.Clone(buf.Bytes())
	if withJSON {
		buf.Reset()
		if err := wire.JSON.EncodeRequest(&buf, &req); err != nil {
			return nil, fmt.Errorf("encode JSON request: %w", err)
		}
		gr.json = bytes.Clone(buf.Bytes())
	}
	return gr, nil
}

// drawWarmSet generates the warm set: warmSetSize/2 small graphs, then as
// many medium ones, with sizes spread evenly over each tier.
func (g *generator) drawWarmSet() ([]*graph, error) {
	const half = warmSetSize / 2
	warm := make([]*graph, 0, warmSetSize)
	for i := 0; i < warmSetSize; i++ {
		n, colors := spread(i, half, smallMinN, smallMaxN), smallColors
		if i >= half {
			n, colors = spread(i-half, half, mediumMinN, mediumMaxN), mediumColors
		}
		d, err := g.draw(n, colors)
		if err != nil {
			return nil, err
		}
		gr, err := encodeGraph(d, true)
		if err != nil {
			return nil, err
		}
		gr.warm, gr.d = i, d
		warm = append(warm, gr)
	}
	return warm, nil
}

// makeInputs generates a workload's inputs. Work is fixed by the seed and
// the size: two runs with the same arguments send identical requests.
func makeInputs(w *workload, seed int64, size int) (*inputs, error) {
	g := newGenerator(seed)
	in := &inputs{}
	switch w.name {
	case "cold-compile":
		// size rounds; each round compiles one never-seen medium graph per
		// node count in 48..96, in a seeded order, so every run carries the
		// same spread of graph sizes and only the graphs' shapes vary.
		var list []*request
		for r := 0; r < size; r++ {
			for _, k := range g.rng.Perm(mediumMaxN - mediumMinN + 1) {
				d, err := g.draw(mediumMinN+k, mediumColors)
				if err != nil {
					return nil, err
				}
				gr, err := encodeGraph(d, false)
				if err != nil {
					return nil, err
				}
				list = append(list, compileRequest(gr, wire.Binary))
			}
		}
		in.clients = [][]*request{list}
	case "warm-serve":
		warm, err := g.drawWarmSet()
		if err != nil {
			return nil, err
		}
		in.warm = warm
		// One JSON client and one binary client, each cycling through the
		// warm set in its own seeded order. The JSON client makes fewer
		// rounds so that both finish at about the same time.
		for _, c := range []struct {
			codec  wire.Codec
			rounds int
		}{{wire.JSON, size * warmJSONRounds}, {wire.Binary, size * warmBinaryRounds}} {
			var list []*request
			for r := 0; r < c.rounds; r++ {
				for _, i := range g.rng.Perm(warmSetSize) {
					list = append(list, compileRequest(warm[i], c.codec))
				}
			}
			in.clients = append(in.clients, list)
		}
	case "mixed-serve":
		warm, err := g.drawWarmSet()
		if err != nil {
			return nil, err
		}
		in.warm = warm
		fresh := 0 // never-seen graphs drawn so far; their sizes cycle 16..32
		for c := 0; c < 2; c++ {
			var list []*request
			var order []int
			for e := 0; e < size*mixedEnvelopes; e++ {
				req := &request{path: "/v1/batch", codec: wire.Binary, graphs: make([]*graph, batchJobs)}
				b := wire.BatchRequest{Jobs: make([]wire.CompileRequest, batchJobs)}
				for j := range b.Jobs {
					if (e*batchJobs+j)%newEvery == newEvery-1 {
						d, err := g.draw(smallMinN+fresh%(smallMaxN-smallMinN+1), smallColors)
						if err != nil {
							return nil, err
						}
						fresh++
						req.graphs[j], b.Jobs[j].Graph = &graph{ref: newRefGraph(d), warm: -1}, d
						continue
					}
					if len(order) == 0 {
						order = g.rng.Perm(warmSetSize)
					}
					req.graphs[j], b.Jobs[j].Graph = warm[order[0]], warm[order[0]].d
					order = order[1:]
				}
				var buf bytes.Buffer
				if err := wire.Binary.EncodeBatch(&buf, &b); err != nil {
					return nil, fmt.Errorf("encode batch: %w", err)
				}
				req.body = buf.Bytes()
				list = append(list, req)
			}
			in.clients = append(in.clients, list)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	return in, nil
}

func compileRequest(gr *graph, codec wire.Codec) *request {
	body := gr.bin
	if codec == wire.JSON {
		body = gr.json
	}
	return &request{path: "/v1/compile", codec: codec, body: body, graphs: []*graph{gr}}
}
