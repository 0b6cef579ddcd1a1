// Package library models the functional-unit (FU) module library used by
// the synthesizer: each module implements a set of primitive operations
// with a fixed area cost, execution delay in clock cycles, and per-cycle
// power draw while executing. The built-in default is Table 1 of
// Nielsen & Madsen (DATE 2003).
package library

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"pchls/internal/cdfg"
)

// OperatingPoint is one voltage operating point of a module: running the
// same datapath at a lower supply voltage stretches its latency and cuts
// its dynamic power (P ~ V^2), so each point trades Delay against Power
// at unchanged Area.
type OperatingPoint struct {
	// Voltage is the supply voltage in volts (> 0, finite). Voltages are
	// labels for the points and must be distinct within one module.
	Voltage float64
	// Delay is the execution latency in clock cycles at this voltage (>= 1).
	Delay int
	// Power is the per-cycle power drawn at this voltage (finite, >= 0).
	Power float64
}

// Module describes one functional-unit type.
type Module struct {
	// Name is the unique module name, e.g. "ALU" or "Mult(ser.)".
	Name string
	// Ops is the set of operations the module can execute.
	Ops []cdfg.Op
	// Area is the silicon area cost of one instance (Table 1 units). All
	// voltage levels of a module share the same area.
	Area float64
	// Delay is the execution latency in clock cycles (>= 1). An operation
	// bound to this module occupies it for Delay consecutive cycles.
	Delay int
	// Power is the power drawn in each cycle the module is executing
	// (Table 1 units). Idle modules draw no power in this model.
	Power float64
	// Levels, when non-empty, is the COMPLETE set of voltage operating
	// points of the module; Levels[0] is the nominal point and New
	// normalizes Delay and Power to it. Empty Levels means one implicit
	// nominal point {Voltage: 1, Delay, Power} — the classic single-level
	// module, byte-identical to libraries that predate voltage scaling.
	Levels []OperatingPoint
}

// Implements reports whether the module can execute op.
func (m *Module) Implements(op cdfg.Op) bool {
	for _, o := range m.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// Energy returns the total energy one execution consumes at the nominal
// operating point (Power x Delay cycles).
func (m *Module) Energy() float64 { return m.Power * float64(m.Delay) }

// NumLevels returns the number of voltage operating points (>= 1; a
// module without explicit Levels has the single implicit nominal point).
func (m *Module) NumLevels() int {
	if len(m.Levels) == 0 {
		return 1
	}
	return len(m.Levels)
}

// Level returns the i'th operating point. For a module without explicit
// Levels, level 0 is the implicit nominal point at 1 volt.
func (m *Module) Level(i int) OperatingPoint {
	if len(m.Levels) == 0 {
		if i != 0 {
			panic(fmt.Sprintf("library: module %q has 1 level, level %d requested", m.Name, i))
		}
		return OperatingPoint{Voltage: 1, Delay: m.Delay, Power: m.Power}
	}
	return m.Levels[i]
}

// MultiLevel reports whether the module has more than one operating point.
func (m *Module) MultiLevel() bool { return len(m.Levels) > 1 }

// String returns a compact human-readable description.
func (m *Module) String() string {
	ops := make([]string, len(m.Ops))
	for i, o := range m.Ops {
		ops[i] = o.String()
	}
	return fmt.Sprintf("%s{%s} area=%g delay=%d power=%g", m.Name, strings.Join(ops, ","), m.Area, m.Delay, m.Power)
}

// validate checks a single module's fields.
func (m *Module) validate() error {
	var errs []error
	if m.Name == "" {
		errs = append(errs, errors.New("library: module with empty name"))
	}
	if len(m.Ops) == 0 {
		errs = append(errs, fmt.Errorf("library: module %q implements no operations", m.Name))
	}
	seen := map[cdfg.Op]bool{}
	for _, o := range m.Ops {
		if !o.Valid() {
			errs = append(errs, fmt.Errorf("library: module %q: invalid operation", m.Name))
		}
		if seen[o] {
			errs = append(errs, fmt.Errorf("library: module %q: duplicate operation %s", m.Name, o))
		}
		seen[o] = true
	}
	if m.Area < 0 || math.IsNaN(m.Area) || math.IsInf(m.Area, 0) {
		errs = append(errs, fmt.Errorf("library: module %q: area %v: %w", m.Name, m.Area, ErrBadArea))
	}
	if m.Delay < 1 {
		errs = append(errs, fmt.Errorf("library: module %q: delay %d: %w", m.Name, m.Delay, ErrBadDelay))
	}
	if m.Power < 0 || math.IsNaN(m.Power) || math.IsInf(m.Power, 0) {
		errs = append(errs, fmt.Errorf("library: module %q: power %v: %w", m.Name, m.Power, ErrBadPower))
	}
	voltages := map[float64]bool{}
	for i, lv := range m.Levels {
		if lv.Voltage <= 0 || math.IsNaN(lv.Voltage) || math.IsInf(lv.Voltage, 0) {
			errs = append(errs, fmt.Errorf("library: module %q level %d: voltage %v: %w", m.Name, i, lv.Voltage, ErrBadVoltage))
		}
		if lv.Delay < 1 {
			errs = append(errs, fmt.Errorf("library: module %q level %d: delay %d: %w", m.Name, i, lv.Delay, ErrBadDelay))
		}
		if lv.Power < 0 || math.IsNaN(lv.Power) || math.IsInf(lv.Power, 0) {
			errs = append(errs, fmt.Errorf("library: module %q level %d: power %v: %w", m.Name, i, lv.Power, ErrBadPower))
		}
		if voltages[lv.Voltage] {
			errs = append(errs, fmt.Errorf("library: module %q: voltage %v: %w", m.Name, lv.Voltage, ErrDuplicateLevel))
		}
		voltages[lv.Voltage] = true
	}
	return errors.Join(errs...)
}

// Library is an immutable, validated collection of modules. Build one with
// New or Parse, or use Table1.
type Library struct {
	modules []Module
	byName  map[string]int
	byOp    map[cdfg.Op][]int // module indices implementing each op, in declaration order
}

// ErrNoModule is wrapped by lookups that find no module for an operation.
var ErrNoModule = errors.New("no module implements operation")

// The distinct module-validation failure classes, wrapped by New (and
// therefore by every parser, which funnels through New) so callers can
// classify rejects with errors.Is.
var (
	// ErrBadDelay marks a module whose delay is not at least one cycle.
	ErrBadDelay = errors.New("module delay must be >= 1 cycle")
	// ErrBadArea marks a module whose area is negative, NaN or infinite.
	ErrBadArea = errors.New("module area must be finite and non-negative")
	// ErrBadPower marks a module whose per-cycle power is negative, NaN or
	// infinite.
	ErrBadPower = errors.New("module power must be finite and non-negative")
	// ErrDuplicateModule marks a reused module name.
	ErrDuplicateModule = errors.New("duplicate module name")
	// ErrBadVoltage marks an operating point whose supply voltage is not a
	// positive finite number.
	ErrBadVoltage = errors.New("operating-point voltage must be finite and positive")
	// ErrDuplicateLevel marks a module listing two operating points at the
	// same supply voltage.
	ErrDuplicateLevel = errors.New("duplicate operating-point voltage")
	// ErrUnknownLevelModule marks a level declaration that references a
	// module the library does not define.
	ErrUnknownLevelModule = errors.New("level references unknown module")
)

// New builds a validated library from the given modules. Module order is
// preserved and is the deterministic iteration order everywhere.
func New(modules []Module) (*Library, error) {
	l := &Library{
		modules: append([]Module(nil), modules...),
		byName:  make(map[string]int, len(modules)),
		byOp:    make(map[cdfg.Op][]int),
	}
	var errs []error
	for i := range l.modules {
		m := &l.modules[i]
		// A module with explicit Levels is defined by them: the top-level
		// Delay/Power mirror the nominal point Levels[0] so every consumer
		// that ignores voltage scaling sees the nominal behaviour.
		if len(m.Levels) > 0 {
			m.Levels = append([]OperatingPoint(nil), m.Levels...)
			m.Delay = m.Levels[0].Delay
			m.Power = m.Levels[0].Power
		}
		if err := m.validate(); err != nil {
			errs = append(errs, err)
			continue
		}
		if _, dup := l.byName[m.Name]; dup {
			errs = append(errs, fmt.Errorf("library: module %q: %w", m.Name, ErrDuplicateModule))
			continue
		}
		l.byName[m.Name] = i
		for _, o := range m.Ops {
			l.byOp[o] = append(l.byOp[o], i)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if len(l.modules) == 0 {
		return nil, errors.New("library: empty module list")
	}
	return l, nil
}

// MustNew is New that panics on error; for statically-known-good libraries.
func MustNew(modules []Module) *Library {
	l, err := New(modules)
	if err != nil {
		panic(err)
	}
	return l
}

// Len returns the number of modules.
func (l *Library) Len() int { return len(l.modules) }

// Modules returns a copy of the module list in declaration order.
func (l *Library) Modules() []Module {
	out := make([]Module, len(l.modules))
	copy(out, l.modules)
	return out
}

// Module returns the i'th module (declaration order).
func (l *Library) Module(i int) *Module { return &l.modules[i] }

// Lookup returns the module with the given name.
func (l *Library) Lookup(name string) (*Module, bool) {
	i, ok := l.byName[name]
	if !ok {
		return nil, false
	}
	return &l.modules[i], true
}

// Candidates returns the indices of all modules implementing op, in
// declaration order. The returned slice is owned by the library.
func (l *Library) Candidates(op cdfg.Op) []int { return l.byOp[op] }

// Fastest returns the minimum-delay module implementing op, breaking ties
// by smaller area, then declaration order.
func (l *Library) Fastest(op cdfg.Op) (*Module, error) {
	return l.selectBy(op, func(a, b *Module) bool {
		if a.Delay != b.Delay {
			return a.Delay < b.Delay
		}
		return a.Area < b.Area
	})
}

// Smallest returns the minimum-area module implementing op, breaking ties
// by smaller delay, then declaration order.
func (l *Library) Smallest(op cdfg.Op) (*Module, error) {
	return l.selectBy(op, func(a, b *Module) bool {
		if a.Area != b.Area {
			return a.Area < b.Area
		}
		return a.Delay < b.Delay
	})
}

// LowestPower returns the minimum-power module implementing op, breaking
// ties by smaller area, then declaration order.
func (l *Library) LowestPower(op cdfg.Op) (*Module, error) {
	return l.selectBy(op, func(a, b *Module) bool {
		if a.Power != b.Power {
			return a.Power < b.Power
		}
		return a.Area < b.Area
	})
}

func (l *Library) selectBy(op cdfg.Op, less func(a, b *Module) bool) (*Module, error) {
	cand := l.byOp[op]
	if len(cand) == 0 {
		return nil, fmt.Errorf("library: operation %s: %w", op, ErrNoModule)
	}
	best := &l.modules[cand[0]]
	for _, i := range cand[1:] {
		if less(&l.modules[i], best) {
			best = &l.modules[i]
		}
	}
	return best, nil
}

// Covers reports whether every operation used by the graph has at least one
// implementing module, returning the uncovered operations otherwise.
func (l *Library) Covers(g *cdfg.Graph) (missing []cdfg.Op) {
	counts := g.OpCounts()
	ops := make([]cdfg.Op, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		if len(l.byOp[op]) == 0 {
			missing = append(missing, op)
		}
	}
	return missing
}

// MinPowerFloor returns the smallest per-cycle power budget under which the
// graph could possibly be scheduled: the maximum over operations of the
// minimum module power for that operation. Any budget below this makes some
// single operation unschedulable.
func (l *Library) MinPowerFloor(g *cdfg.Graph) (float64, error) {
	floor := 0.0
	counts := g.OpCounts()
	ops := make([]cdfg.Op, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		m, err := l.LowestPower(op)
		if err != nil {
			return 0, err
		}
		if m.Power > floor {
			floor = m.Power
		}
	}
	return floor, nil
}

// MaxDelay returns the largest module delay in the library, over every
// voltage operating point.
func (l *Library) MaxDelay() int {
	d := 1
	for i := range l.modules {
		m := &l.modules[i]
		for li := 0; li < m.NumLevels(); li++ {
			if lv := m.Level(li); lv.Delay > d {
				d = lv.Delay
			}
		}
	}
	return d
}

// MultiLevel reports whether any module has more than one voltage
// operating point — i.e. whether Expand would change the library.
func (l *Library) MultiLevel() bool {
	for i := range l.modules {
		if l.modules[i].MultiLevel() {
			return true
		}
	}
	return false
}

// Expand lowers voltage scaling into module selection: every module with
// k > 1 operating points becomes k single-level modules named
// "<name>@<voltage>V", each carrying its level's delay and power at the
// base module's area, in level order. The synthesis engine then chooses
// an operating point exactly the way it chooses a module candidate, and
// its per-candidate tables gain the level dimension for free. Single-level modules are kept verbatim, and a library with no
// multi-level module returns the receiver itself — voltage-free inputs
// are byte-identical through every downstream path by construction.
func (l *Library) Expand() (*Library, error) {
	if !l.MultiLevel() {
		return l, nil
	}
	var mods []Module
	for i := range l.modules {
		m := &l.modules[i]
		if !m.MultiLevel() {
			mods = append(mods, *m)
			continue
		}
		for _, lv := range m.Levels {
			mods = append(mods, Module{
				Name:   fmt.Sprintf("%s@%gV", m.Name, lv.Voltage),
				Ops:    m.Ops,
				Area:   m.Area,
				Delay:  lv.Delay,
				Power:  lv.Power,
				Levels: []OperatingPoint{lv},
			})
		}
	}
	el, err := New(mods)
	if err != nil {
		return nil, fmt.Errorf("library: expanding voltage levels: %w", err)
	}
	return el, nil
}

// Table renders the library as an aligned text table mirroring the paper's
// Table 1 (Module, Oprs, Area, Clk-cyc., P).
func (l *Library) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-10s %8s %8s %6s\n", "Module", "Oprs", "Area", "Clk-cyc.", "P")
	for i := range l.modules {
		m := &l.modules[i]
		ops := make([]string, len(m.Ops))
		for j, o := range m.Ops {
			ops[j] = o.String()
		}
		fmt.Fprintf(&sb, "%-12s %-10s %8g %8d %6g\n", m.Name, "{"+strings.Join(ops, ",")+"}", m.Area, m.Delay, m.Power)
	}
	return sb.String()
}

// Parse reads a library from a line-oriented text format:
//
//	# comment
//	module <name> <op>[,<op>...] <area> <delay> <power>
//	level <name> <voltage> <delay> <power>
//
// e.g. "module ALU +,-,> 97 1 2.5". Level lines declare voltage operating
// points for a module declared elsewhere in the file (any order); when a
// module has level lines they are its complete operating-point set in file
// order, the first being the nominal point the module line's delay and
// power are normalized to.
func Parse(r io.Reader) (*Library, error) {
	var mods []Module
	var order []string                      // module names with levels, first-reference order
	levels := map[string][]OperatingPoint{} // module name -> operating points in file order
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "level" {
			if len(fields) != 5 {
				return nil, fmt.Errorf("library: line %d: want \"level <module> <voltage> <delay> <power>\", got %q", lineNo, line)
			}
			voltage, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("library: line %d: bad voltage %q: %w", lineNo, fields[2], err)
			}
			delay, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("library: line %d: bad delay %q: %w", lineNo, fields[3], err)
			}
			power, err := strconv.ParseFloat(fields[4], 64)
			if err != nil {
				return nil, fmt.Errorf("library: line %d: bad power %q: %w", lineNo, fields[4], err)
			}
			if _, seen := levels[fields[1]]; !seen {
				order = append(order, fields[1])
			}
			levels[fields[1]] = append(levels[fields[1]], OperatingPoint{Voltage: voltage, Delay: delay, Power: power})
			continue
		}
		if fields[0] != "module" || len(fields) != 6 {
			return nil, fmt.Errorf("library: line %d: want \"module <name> <ops> <area> <delay> <power>\", got %q", lineNo, line)
		}
		var ops []cdfg.Op
		for _, tok := range strings.Split(fields[2], ",") {
			op, err := cdfg.ParseOp(tok)
			if err != nil {
				return nil, fmt.Errorf("library: line %d: %w", lineNo, err)
			}
			ops = append(ops, op)
		}
		area, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("library: line %d: bad area %q: %w", lineNo, fields[3], err)
		}
		delay, err := strconv.Atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("library: line %d: bad delay %q: %w", lineNo, fields[4], err)
		}
		power, err := strconv.ParseFloat(fields[5], 64)
		if err != nil {
			return nil, fmt.Errorf("library: line %d: bad power %q: %w", lineNo, fields[5], err)
		}
		mods = append(mods, Module{Name: fields[1], Ops: ops, Area: area, Delay: delay, Power: power})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("library: reading input: %w", err)
	}
	if len(levels) > 0 {
		byName := map[string]int{}
		for i := range mods {
			byName[mods[i].Name] = i
		}
		for _, name := range order {
			i, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("library: level for %q: %w", name, ErrUnknownLevelModule)
			}
			mods[i].Levels = levels[name]
		}
	}
	return New(mods)
}

// ParseString is Parse over a string.
func ParseString(s string) (*Library, error) { return Parse(strings.NewReader(s)) }
