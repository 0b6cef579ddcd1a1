package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/explore"
	"pchls/internal/library"
)

// The request payloads of the /v1 endpoints. Graph and Library decode
// through their validating JSON unmarshalers (internal/cdfg,
// internal/library), so a request that decodes successfully already
// carries a structurally valid CDFG and module library; the remaining
// checks here are cross-field (exactly one graph source, a deadline in
// (0, maxDeadline], sane grids).

// source names what a request synthesizes: a built-in benchmark or an
// inline graph, and a module library. Every request type embeds it
// untagged, so its fields sit flat in the request's JSON object.
type source struct {
	// Benchmark names a built-in CDFG; mutually exclusive with Graph.
	Benchmark string `json:"benchmark,omitempty"`
	// Graph is an inline CDFG in the {"name","nodes","edges"} schema.
	Graph *cdfg.Graph `json:"graph,omitempty"`
	// Library is an optional module list; the paper's Table 1 when absent.
	Library *library.Library `json:"library,omitempty"`
}

// synthesizeRequest is the body of POST /v1/synthesize.
type synthesizeRequest struct {
	source
	// Deadline is the latency constraint T in cycles (> 0, required).
	Deadline int `json:"deadline"`
	// PowerMax is the per-cycle power constraint P< (0 = unconstrained).
	PowerMax float64 `json:"power_max,omitempty"`
	// SinglePass selects the paper's one-shot algorithm instead of the
	// portfolio SynthesizeBest.
	SinglePass bool `json:"single_pass,omitempty"`
}

// portfolioRequest is the body of POST /v1/portfolio: anytime portfolio
// synthesis with effort knobs.
type portfolioRequest struct {
	source
	Deadline int     `json:"deadline"`
	PowerMax float64 `json:"power_max,omitempty"`
	// K is the number of perturbed passes per round (0 = server default 8,
	// capped at maxPortfolioPasses).
	K int `json:"k,omitempty"`
	// Budget is the maximum improvement rounds (0 = default 2, capped at
	// maxPortfolioRounds).
	Budget int `json:"budget,omitempty"`
	// Seed fixes the perturbation streams; identical requests produce
	// byte-identical responses for a fixed seed.
	Seed int64 `json:"seed,omitempty"`
}

// Portfolio effort caps: one request may not fan out arbitrarily wide or
// loop arbitrarily long.
const (
	maxPortfolioPasses = 16
	maxPortfolioRounds = 8
)

// sweepRequest is the body of POST /v1/sweep: an area-versus-power sweep
// at a fixed deadline.
type sweepRequest struct {
	source
	Deadline   int     `json:"deadline"`
	PowerMin   float64 `json:"power_min"`
	PowerMax   float64 `json:"power_max"`
	Step       float64 `json:"step"`
	SinglePass bool    `json:"single_pass,omitempty"`
}

// surfaceRequest is the body of POST /v1/surface: a (deadline x power)
// grid exploration.
type surfaceRequest struct {
	source
	Deadlines  []int     `json:"deadlines"`
	Powers     []float64 `json:"powers"`
	SinglePass bool      `json:"single_pass,omitempty"`
}

// batteryRequest selects and sizes the lifetime model of a pareto
// request.
type batteryRequest struct {
	// Model is "kibam" (default) or "peukert".
	Model string `json:"model,omitempty"`
	// Capacity overrides the default sizing — 50x the energy of one
	// unconstrained ASAP schedule period. 0 keeps the default.
	Capacity float64 `json:"capacity,omitempty"`
}

// paretoRequest is the body of POST /v1/pareto: a (deadline x power)
// grid exploration reduced to the non-dominated set over (area, latency,
// peak power, battery lifetime).
type paretoRequest struct {
	source
	Deadlines  []int           `json:"deadlines"`
	Powers     []float64       `json:"powers"`
	SinglePass bool            `json:"single_pass,omitempty"`
	Battery    *batteryRequest `json:"battery,omitempty"`
}

// requestError is a client-side fault mapped to 400 Bad Request.
type requestError struct {
	msg string
	err error
}

func (e *requestError) Error() string {
	if e.err != nil {
		return e.msg + ": " + e.err.Error()
	}
	return e.msg
}

func (e *requestError) Unwrap() error { return e.err }

func badRequest(msg string, err error) error { return &requestError{msg: msg, err: err} }

// isRequestError reports whether err is a client fault.
func isRequestError(err error) bool {
	var re *requestError
	return errors.As(err, &re)
}

// decodeJSON strictly decodes one JSON document from r into v: unknown
// fields, trailing garbage and oversized bodies are all client errors.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid request body", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return badRequest("invalid request body", errors.New("trailing data after JSON document"))
	}
	return nil
}

// resolve materializes the request's CDFG from either the benchmark
// name or the inline graph (exactly one must be present), and its
// library or the Table 1 default.
func (src *source) resolve() (*cdfg.Graph, *library.Library, error) {
	g := src.Graph
	switch {
	case src.Benchmark == "" && g == nil:
		return nil, nil, badRequest(`one of "benchmark" or "graph" is required`, nil)
	case src.Benchmark != "" && g != nil:
		return nil, nil, badRequest(`"benchmark" and "graph" are mutually exclusive`, nil)
	case src.Benchmark != "":
		var err error
		if g, err = bench.ByName(src.Benchmark); err != nil {
			return nil, nil, badRequest("unknown benchmark", err)
		}
	}
	if src.Library == nil {
		return g, library.Table1(), nil
	}
	return g, src.Library, nil
}

func checkPower(name string, p float64) error {
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
		return badRequest(fmt.Sprintf("%q must be a finite non-negative number", name), nil)
	}
	return nil
}

// maxDeadline caps every request deadline, in cycles. Synthesis time and
// memory grow linearly with the deadline (power profiles span it: on
// elliptic, T = 2^20 costs about a second and 17 MB), so the cap bounds
// what one request can cost whatever its graph. It is the paretoMaxPeriods
// scale.
const maxDeadline = 1 << 20

// checkDeadline checks one deadline of the request field named field
// against (0, maxDeadline].
func checkDeadline(field string, d int) error {
	switch {
	case d <= 0:
		return badRequest(fmt.Sprintf("%q must be a positive cycle count", field), nil)
	case d > maxDeadline:
		return badRequest(fmt.Sprintf("%q must be at most %d cycles", field, maxDeadline), nil)
	}
	return nil
}

// checkConstraints checks a single-point request's deadline and power
// budget.
func checkConstraints(deadline int, powerMax float64) (core.Constraints, error) {
	if err := checkDeadline("deadline", deadline); err != nil {
		return core.Constraints{}, err
	}
	if err := checkPower("power_max", powerMax); err != nil {
		return core.Constraints{}, err
	}
	return core.Constraints{Deadline: deadline, PowerMax: powerMax}, nil
}

// checkAxes checks the deadline and power axes of a (deadline x power)
// grid request; kind names the grid in the size error.
func checkAxes(kind string, deadlines []int, powers []float64) error {
	if len(deadlines) == 0 || len(powers) == 0 {
		return badRequest(`"deadlines" and "powers" must be non-empty`, nil)
	}
	if len(deadlines)*len(powers) > maxGridPoints {
		return badRequest(fmt.Sprintf("%s grid has more than %d cells", kind, maxGridPoints), nil)
	}
	for _, d := range deadlines {
		if err := checkDeadline("deadlines", d); err != nil {
			return err
		}
	}
	for _, p := range powers {
		if err := checkPower("powers", p); err != nil {
			return err
		}
	}
	return nil
}

// validate cross-checks a decoded synthesize request and resolves its
// graph and library.
func (req *synthesizeRequest) validate() (*cdfg.Graph, *library.Library, core.Constraints, error) {
	g, lib, err := req.resolve()
	if err != nil {
		return nil, nil, core.Constraints{}, err
	}
	cons, err := checkConstraints(req.Deadline, req.PowerMax)
	if err != nil {
		return nil, nil, core.Constraints{}, err
	}
	return g, lib, cons, nil
}

// validate cross-checks a decoded portfolio request and resolves its
// graph and library.
func (req *portfolioRequest) validate() (*cdfg.Graph, *library.Library, core.Constraints, error) {
	g, lib, err := req.resolve()
	if err != nil {
		return nil, nil, core.Constraints{}, err
	}
	cons, err := checkConstraints(req.Deadline, req.PowerMax)
	if err != nil {
		return nil, nil, core.Constraints{}, err
	}
	if req.K < 0 || req.K > maxPortfolioPasses {
		return nil, nil, core.Constraints{}, badRequest(fmt.Sprintf(`"k" must be in [0, %d]`, maxPortfolioPasses), nil)
	}
	if req.Budget < 0 || req.Budget > maxPortfolioRounds {
		return nil, nil, core.Constraints{}, badRequest(fmt.Sprintf(`"budget" must be in [0, %d]`, maxPortfolioRounds), nil)
	}
	return g, lib, cons, nil
}

func (req *sweepRequest) validate() (*cdfg.Graph, *library.Library, error) {
	g, lib, err := req.resolve()
	if err != nil {
		return nil, nil, err
	}
	if err := checkDeadline("deadline", req.Deadline); err != nil {
		return nil, nil, err
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"power_min", req.PowerMin}, {"power_max", req.PowerMax}, {"step", req.Step}} {
		if err := checkPower(f.name, f.v); err != nil {
			return nil, nil, err
		}
	}
	if req.Step <= 0 || req.PowerMax < req.PowerMin {
		return nil, nil, badRequest("sweep grid must satisfy step > 0 and power_min <= power_max", nil)
	}
	// Sized by the grid rule the sweep itself uses, stopping one sample
	// past the cap.
	switch n := len(explore.PowerGrid(req.PowerMin, req.PowerMax, req.Step, maxGridPoints+1)); {
	case n == 0:
		return nil, nil, badRequest("sweep grid step is below the float spacing of its samples", nil)
	case n > maxGridPoints:
		return nil, nil, badRequest(fmt.Sprintf("sweep grid has more than %d points", maxGridPoints), nil)
	}
	return g, lib, nil
}

func (req *surfaceRequest) validate() (*cdfg.Graph, *library.Library, error) {
	g, lib, err := req.resolve()
	if err != nil {
		return nil, nil, err
	}
	if err := checkAxes("surface", req.Deadlines, req.Powers); err != nil {
		return nil, nil, err
	}
	return g, lib, nil
}

// batteryModel returns the request's normalized battery model name and
// explicit capacity (0 = derive the default).
func (req *paretoRequest) batteryModel() (model string, capacity float64) {
	model = "kibam"
	if req.Battery != nil {
		if req.Battery.Model != "" {
			model = req.Battery.Model
		}
		capacity = req.Battery.Capacity
	}
	return model, capacity
}

func (req *paretoRequest) validate() (*cdfg.Graph, *library.Library, error) {
	g, lib, err := req.resolve()
	if err != nil {
		return nil, nil, err
	}
	if err := checkAxes("pareto", req.Deadlines, req.Powers); err != nil {
		return nil, nil, err
	}
	if req.Battery != nil {
		switch req.Battery.Model {
		case "", "kibam", "peukert":
		default:
			return nil, nil, badRequest(`"battery.model" must be "kibam" or "peukert"`, nil)
		}
		if err := checkPower("battery.capacity", req.Battery.Capacity); err != nil {
			return nil, nil, err
		}
	}
	return g, lib, nil
}

// maxGridPoints bounds sweep, surface and pareto request grids: a single
// request may not fan out into more synthesis runs than this.
const maxGridPoints = 4096
