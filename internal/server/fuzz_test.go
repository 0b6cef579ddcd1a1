package server

import (
	"bytes"
	"testing"

	"pchls/internal/cache"
)

// FuzzDecodeRequest throws arbitrary bytes at the /v1/synthesize request
// decoder. The invariant under fuzz: decoding either fails with a client
// error (mapped to 400) or yields a fully validated request whose inputs
// are usable by the engine and the key derivation — never a panic, never
// a half-validated graph.
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
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req synthesizeRequest
		if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
			if !isRequestError(err) {
				t.Fatalf("decoder returned a non-client error for %q: %v", data, err)
			}
			return
		}
		g, lib, cons, err := req.validate()
		if err != nil {
			if !isRequestError(err) {
				t.Fatalf("validator returned a non-client error for %q: %v", data, err)
			}
			return
		}
		if g == nil || lib == nil {
			t.Fatalf("validated request has nil graph or library for %q", data)
		}
		if cons.Deadline <= 0 || cons.Deadline > maxDeadline {
			t.Fatalf("validated request has deadline %d outside (0, %d] for %q", cons.Deadline, maxDeadline, data)
		}
		// A validated request must survive graph traversal and key
		// derivation without panicking.
		if _, err := g.TopoOrder(); err != nil {
			t.Fatalf("validated graph fails TopoOrder for %q: %v", data, err)
		}
		if key := cache.SynthesizeKey(g, lib, cons, req.SinglePass); len(key) != 64 {
			t.Fatalf("cache key %q is not a sha256 hex digest", key)
		}
	})
}
