package server

import (
	"bytes"
	"testing"

	"pchls/internal/cache"
	"pchls/internal/cdfg"
	"pchls/internal/library"
)

// decoded is what a request yields once validated: its resolved graph
// and library, every deadline it asks for, and the content address it
// is cached under.
type decoded struct {
	g         *cdfg.Graph
	lib       *library.Library
	deadlines []int
	key       string
}

// FuzzDecodeRequest throws arbitrary bytes at the decoder of every
// request schema: the five /v1 bodies and the worker's /cluster/point
// body, which all share the embedded graph and library source. The
// invariant under fuzz: decoding either fails with a client error
// (mapped to 400) or yields a fully validated request whose inputs are
// usable by the engine and the key derivation — never a panic, never a
// half-validated graph.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"benchmark":"hal","deadline":17,"power_max":20}`,
		`{"benchmark":"diffeq2","deadline":30,"power_max":15,"single_pass":true}`,
		`{"graph":{"name":"g","nodes":[{"name":"a","op":"+"},{"name":"b","op":"*"}],"edges":[{"from":"a","to":"b"}]},"deadline":5}`,
		`{"benchmark":"hal","library":[{"name":"m","ops":["+","-"],"area":1,"delay":1,"power":2.5}],"deadline":9}`,
		`{"graph":{"name":"g","nodes":[{"name":"a","op":"+"}],"edges":[{"from":"a","to":"a"}]},"deadline":3}`,
		`{"benchmark":"hal","deadline":-1}`,
		`{"benchmark":"hal","graph":{"name":"g","nodes":[]},"deadline":1}`,
		`{"deadline":17}`,
		`{"benchmark":"hal","deadline":17,"power_max":1e309}`,
		`{"benchmark":"hal","deadline":17}{"trailing":true}`,
		`{"unknown_field":1}`,
		`[1,2,3]`,
		`"just a string"`,
		`{`,
		``,
		`{"benchmark":"hal","deadline":8388608,"power_max":20}`,
		`{"benchmark":"hal","deadline":17,"power_max":20,"body":true}`,
		`{"benchmark":"hal","deadline":17,"power_max":20,"k":2,"budget":1,"seed":7}`,
		`{"benchmark":"hal","deadline":17,"k":99}`,
		`{"benchmark":"hal","deadline":17,"power_min":5,"power_max":50,"step":5}`,
		`{"benchmark":"hal","deadline":17,"power_min":5,"power_max":5e300,"step":1e-300}`,
		`{"benchmark":"hal","deadlines":[10,17],"powers":[20,40]}`,
		`{"graph":{"name":"g","nodes":[{"name":"a","op":"+"}],"edges":[]},"deadlines":[2],"powers":[0],"single_pass":true}`,
		`{"benchmark":"hal","deadlines":[],"powers":[20]}`,
		`{"benchmark":"hal","deadlines":[10,17],"powers":[20,40],"battery":{"model":"peukert","capacity":500}}`,
		`{"benchmark":"hal","deadlines":[10],"powers":[20],"battery":{"model":"lead"}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// Each schema decodes into a fresh request, validates it and derives
	// its key the way its endpoint does.
	schemas := []struct {
		name string
		run  func(data []byte) (decoded, error)
	}{
		{"synthesize", func(data []byte) (decoded, error) {
			var req synthesizeRequest
			if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
				return decoded{}, err
			}
			g, lib, cons, err := req.validate()
			if err != nil {
				return decoded{}, err
			}
			return decoded{g, lib, []int{cons.Deadline}, cache.SynthesizeKey(g, lib, cons, req.SinglePass)}, nil
		}},
		{"point", func(data []byte) (decoded, error) {
			var req pointRequest
			if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
				return decoded{}, err
			}
			g, lib, cons, err := req.validate()
			if err != nil {
				return decoded{}, err
			}
			return decoded{g, lib, []int{cons.Deadline}, cache.SynthesizeKey(g, lib, cons, req.SinglePass)}, nil
		}},
		{"portfolio", func(data []byte) (decoded, error) {
			var req portfolioRequest
			if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
				return decoded{}, err
			}
			g, lib, cons, err := req.validate()
			if err != nil {
				return decoded{}, err
			}
			return decoded{g, lib, []int{cons.Deadline}, cache.PortfolioKey(g, lib, cons, req.K, req.Budget, req.Seed)}, nil
		}},
		{"sweep", func(data []byte) (decoded, error) {
			var req sweepRequest
			if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
				return decoded{}, err
			}
			g, lib, err := req.validate()
			if err != nil {
				return decoded{}, err
			}
			return decoded{g, lib, []int{req.Deadline}, cache.SweepKey(g, lib, req.Deadline, req.PowerMin, req.PowerMax, req.Step, req.SinglePass)}, nil
		}},
		{"surface", func(data []byte) (decoded, error) {
			var req surfaceRequest
			if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
				return decoded{}, err
			}
			g, lib, err := req.validate()
			if err != nil {
				return decoded{}, err
			}
			return decoded{g, lib, req.Deadlines, cache.SurfaceKey(g, lib, req.Deadlines, req.Powers, req.SinglePass)}, nil
		}},
		{"pareto", func(data []byte) (decoded, error) {
			var req paretoRequest
			if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
				return decoded{}, err
			}
			g, lib, err := req.validate()
			if err != nil {
				return decoded{}, err
			}
			model, capacity := req.batteryModel()
			return decoded{g, lib, req.Deadlines, cache.ParetoKey(g, lib, req.Deadlines, req.Powers, model, capacity, paretoMaxPeriods, req.SinglePass)}, nil
		}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sc := range schemas {
			d, err := sc.run(data)
			if err != nil {
				if !isRequestError(err) {
					t.Fatalf("%s: a non-client error for %q: %v", sc.name, data, err)
				}
				continue
			}
			if d.g == nil || d.lib == nil {
				t.Fatalf("%s: validated request has nil graph or library for %q", sc.name, data)
			}
			for _, dl := range d.deadlines {
				if dl <= 0 || dl > maxDeadline {
					t.Fatalf("%s: validated request has deadline %d outside (0, %d] for %q", sc.name, dl, maxDeadline, data)
				}
			}
			// A validated request must survive graph traversal and key
			// derivation without panicking.
			if _, err := d.g.TopoOrder(); err != nil {
				t.Fatalf("%s: validated graph fails TopoOrder for %q: %v", sc.name, data, err)
			}
			if len(d.key) != 64 {
				t.Fatalf("%s: cache key %q is not a sha256 hex digest", sc.name, d.key)
			}
		}
	})
}
