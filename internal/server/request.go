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
// checks here are cross-field (exactly one graph source, positive
// deadline, sane grids).

// synthesizeRequest is the body of POST /v1/synthesize.
type synthesizeRequest struct {
	// Benchmark names a built-in CDFG; mutually exclusive with Graph.
	Benchmark string `json:"benchmark,omitempty"`
	// Graph is an inline CDFG in the {"name","nodes","edges"} schema.
	Graph *cdfg.Graph `json:"graph,omitempty"`
	// Library is an optional module list; the paper's Table 1 when absent.
	Library *library.Library `json:"library,omitempty"`
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
	Benchmark string           `json:"benchmark,omitempty"`
	Graph     *cdfg.Graph      `json:"graph,omitempty"`
	Library   *library.Library `json:"library,omitempty"`
	Deadline  int              `json:"deadline"`
	PowerMax  float64          `json:"power_max,omitempty"`
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
	Benchmark  string           `json:"benchmark,omitempty"`
	Graph      *cdfg.Graph      `json:"graph,omitempty"`
	Library    *library.Library `json:"library,omitempty"`
	Deadline   int              `json:"deadline"`
	PowerMin   float64          `json:"power_min"`
	PowerMax   float64          `json:"power_max"`
	Step       float64          `json:"step"`
	SinglePass bool             `json:"single_pass,omitempty"`
}

// surfaceRequest is the body of POST /v1/surface: a (deadline x power)
// grid exploration.
type surfaceRequest struct {
	Benchmark  string           `json:"benchmark,omitempty"`
	Graph      *cdfg.Graph      `json:"graph,omitempty"`
	Library    *library.Library `json:"library,omitempty"`
	Deadlines  []int            `json:"deadlines"`
	Powers     []float64        `json:"powers"`
	SinglePass bool             `json:"single_pass,omitempty"`
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
	Benchmark  string           `json:"benchmark,omitempty"`
	Graph      *cdfg.Graph      `json:"graph,omitempty"`
	Library    *library.Library `json:"library,omitempty"`
	Deadlines  []int            `json:"deadlines"`
	Powers     []float64        `json:"powers"`
	SinglePass bool             `json:"single_pass,omitempty"`
	Battery    *batteryRequest  `json:"battery,omitempty"`
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

// resolveGraph materializes the request's CDFG from either the benchmark
// name or the inline graph (exactly one must be present).
func resolveGraph(benchmark string, graph *cdfg.Graph) (*cdfg.Graph, error) {
	switch {
	case benchmark == "" && graph == nil:
		return nil, badRequest(`one of "benchmark" or "graph" is required`, nil)
	case benchmark != "" && graph != nil:
		return nil, badRequest(`"benchmark" and "graph" are mutually exclusive`, nil)
	case benchmark != "":
		g, err := bench.ByName(benchmark)
		if err != nil {
			return nil, badRequest("unknown benchmark", err)
		}
		return g, nil
	default:
		return graph, nil
	}
}

// resolveLibrary returns the request library or the Table 1 default.
func resolveLibrary(lib *library.Library) *library.Library {
	if lib == nil {
		return library.Table1()
	}
	return lib
}

func checkPower(name string, p float64) error {
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
		return badRequest(fmt.Sprintf("%q must be a finite non-negative number", name), nil)
	}
	return nil
}

// checkConstraints checks a single-point request's deadline and power
// budget.
func checkConstraints(deadline int, powerMax float64) (core.Constraints, error) {
	if deadline <= 0 {
		return core.Constraints{}, badRequest(`"deadline" must be a positive cycle count`, nil)
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
		if d <= 0 {
			return badRequest(`every "deadlines" entry must be positive`, nil)
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
	g, err := resolveGraph(req.Benchmark, req.Graph)
	if err != nil {
		return nil, nil, core.Constraints{}, err
	}
	cons, err := checkConstraints(req.Deadline, req.PowerMax)
	if err != nil {
		return nil, nil, core.Constraints{}, err
	}
	return g, resolveLibrary(req.Library), cons, nil
}

// validate cross-checks a decoded portfolio request and resolves its
// graph and library.
func (req *portfolioRequest) validate() (*cdfg.Graph, *library.Library, core.Constraints, error) {
	g, err := resolveGraph(req.Benchmark, req.Graph)
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
	return g, resolveLibrary(req.Library), cons, nil
}

func (req *sweepRequest) validate() (*cdfg.Graph, *library.Library, error) {
	g, err := resolveGraph(req.Benchmark, req.Graph)
	if err != nil {
		return nil, nil, err
	}
	if req.Deadline <= 0 {
		return nil, nil, badRequest(`"deadline" must be a positive cycle count`, nil)
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
	if len(explore.PowerGrid(req.PowerMin, req.PowerMax, req.Step, maxGridPoints+1)) > maxGridPoints {
		return nil, nil, badRequest(fmt.Sprintf("sweep grid has more than %d points", maxGridPoints), nil)
	}
	return g, resolveLibrary(req.Library), nil
}

func (req *surfaceRequest) validate() (*cdfg.Graph, *library.Library, error) {
	g, err := resolveGraph(req.Benchmark, req.Graph)
	if err != nil {
		return nil, nil, err
	}
	if err := checkAxes("surface", req.Deadlines, req.Powers); err != nil {
		return nil, nil, err
	}
	return g, resolveLibrary(req.Library), nil
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
	g, err := resolveGraph(req.Benchmark, req.Graph)
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
	return g, resolveLibrary(req.Library), nil
}

// maxGridPoints bounds sweep, surface and pareto request grids: a single
// request may not fan out into more synthesis runs than this.
const maxGridPoints = 4096
