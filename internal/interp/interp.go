package interp

import (
	"context"
	"fmt"
	"io"

	ft "repro/internal/fortran"
	"repro/internal/gptl"
	"repro/internal/numerics"
	"repro/internal/perfmodel"
)

// FailKind classifies why a run failed, matching the variant outcome
// buckets of the paper's Table II.
type FailKind int

// Failure kinds.
const (
	FailNone FailKind = iota
	FailNonFinite
	FailStop
	FailBounds
	FailTimeout
	FailInternal
	// FailCancelled aborts a run whose Config.Context was cancelled — a
	// deadline or shutdown killing the evaluation from outside. Unlike
	// FailTimeout (the deterministic 3x-baseline cycle budget of §IV-A),
	// cancellation says nothing about the variant: callers must treat it
	// as an interrupted measurement, never as a variant outcome.
	FailCancelled
)

func (k FailKind) String() string {
	switch k {
	case FailNonFinite:
		return "non-finite value"
	case FailStop:
		return "error stop"
	case FailBounds:
		return "index out of bounds"
	case FailTimeout:
		return "cycle budget exceeded"
	case FailInternal:
		return "internal error"
	case FailCancelled:
		return "run cancelled"
	default:
		return "ok"
	}
}

// RunError is a runtime failure of the interpreted program.
type RunError struct {
	Pos  ft.Pos
	Kind FailKind
	Msg  string
}

func (e *RunError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Pos, e.Kind, e.Msg)
}

// Config configures a run.
type Config struct {
	// Model prices operations; required.
	Model *perfmodel.Model
	// Analysis supplies vectorization/inlining verdicts. If nil it is
	// computed from the program.
	Analysis *perfmodel.Analysis
	// TrapNonFinite makes any assignment of NaN/±Inf a runtime error,
	// the mechanism behind Table II's "Error" outcomes.
	TrapNonFinite bool
	// CycleBudget aborts the run with FailTimeout once simulated cycles
	// reach it (0 = unlimited). The boundary is inclusive: a statement
	// beginning at exactly CycleBudget cycles does not execute, so the
	// evaluator's "3× baseline" contract (§IV-A) admits strictly less
	// than three baselines of work. Pinned by TestCycleBudgetBoundary
	// for both engines.
	CycleBudget float64
	// Context, if non-nil, aborts the run with FailCancelled once it is
	// done. It is polled periodically in the statement loop, alongside
	// the cycle budget, so even a long-running evaluation notices a hard
	// cancellation within a bounded number of statements.
	Context context.Context
	// Stdout receives PRINT output (nil discards it).
	Stdout io.Writer
	// Profile enables GPTL per-procedure timing (with modeled overhead).
	Profile bool
	// MaxDepth bounds the call stack (default 1000).
	MaxDepth int
	// Numerics, if non-nil, enables shadow execution: every real value
	// carries a float64 shadow computed at full precision and the
	// recorder aggregates per-statement/per-atom divergence. Strictly
	// diagnostic: it never changes primary-lane results, costs, or
	// failure behaviour (test-enforced), and nil keeps the hot path
	// allocation-free.
	Numerics *numerics.Recorder
	// Engine is the differential-test oracle hook: the zero value runs
	// the closure-compiled VM, and EngineAST runs the reference
	// tree-walker instead. The differential tests and the benchmark's
	// reference generator set it; no command does. Results, cycles,
	// steps, recorder traces and journals are bit-for-bit identical
	// across engines (test-enforced), so the engine is never part of a
	// journal fingerprint.
	Engine Engine
}

// Engine selects how a run executes the checked AST. Only tests and
// the benchmark's reference generator choose one; production runs the
// VM.
type Engine int

// Engines. The zero value is the VM, the only engine a command runs.
const (
	// EngineVM compiles the program to typed closures over unboxed
	// slot storage at New time and runs those (see docs/interpreter.md).
	EngineVM Engine = iota
	// EngineAST walks the tree directly: the executable specification
	// the VM is differentially tested against.
	EngineAST
)

func (e Engine) String() string {
	if e == EngineAST {
		return "ast"
	}
	return "vm"
}

// Result summarizes a completed run.
type Result struct {
	Cycles     float64
	Casts      int64   // dynamic kind-conversion count
	CastCycles float64 // cycles spent on kind conversions
	Steps      int64   // statements executed (loop bodies re-counted)
	Timers     *gptl.Timers
	// ProcCastCycles attributes cast cycles to the procedure executing
	// them — the evidence behind the paper's "40% of CPU time is
	// casting overhead" analysis of MOM6 variant 58.
	ProcCastCycles map[string]float64
}

// control is the statement-level control-flow signal.
type control int

const (
	ctlNone control = iota
	ctlExit
	ctlCycle
	ctlReturn
)

type frame struct {
	proc  *ft.Procedure
	slots []Value
}

// Interp executes one program. An Interp is single-use: construct, Run,
// then inspect globals. Under the default EngineVM the tree-walking
// fields stay idle and vmr carries the compiled program; the public
// surface (Run, Cycles, Global*) is engine-agnostic.
type Interp struct {
	prog    *ft.Program
	cfg     Config
	model   *perfmodel.Model
	an      *perfmodel.Analysis
	cycles  float64
	globals [][]Value
	timers  *gptl.Timers
	stdout  io.Writer
	vmr     *vm

	vecFactor float64 // current pricing multiplier (vectorized loops)
	depth     int

	casts      int64
	castCycles float64
	procCasts  map[string]float64
	curProc    []string // procedure name stack for cast attribution
	nrec       *numerics.Recorder

	// steps counts checkBudget calls — approximately statements
	// executed. It feeds Result.Steps and paces the (comparatively
	// costly) Context poll to every cancelPollInterval steps.
	steps int64
}

// cancelPollInterval is how many budget checks (≈ statements) pass
// between Context polls: rare enough to stay off the hot path, frequent
// enough that a hard cancellation lands within microseconds of real
// work.
const cancelPollInterval = 1024

// New prepares an interpreter for an analyzed program.
func New(prog *ft.Program, cfg Config) (*Interp, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("interp: Config.Model is required")
	}
	if prog.Main == nil {
		return nil, fmt.Errorf("interp: program has no main program block")
	}
	if prog.ProcMap == nil {
		return nil, fmt.Errorf("interp: program must be analyzed first")
	}
	an := cfg.Analysis
	if an == nil {
		an = perfmodel.Analyze(prog, cfg.Model)
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 1000
	}
	i := &Interp{
		prog:      prog,
		cfg:       cfg,
		model:     cfg.Model,
		an:        an,
		stdout:    cfg.Stdout,
		vecFactor: 1.0,
		procCasts: make(map[string]float64),
		nrec:      cfg.Numerics,
	}
	if cfg.Engine == EngineVM {
		i.vmr = newVM(prog, &i.cfg, cfg.Model, an)
		return i, nil
	}
	if cfg.Profile {
		// Timer overhead is charged in invoke() for non-inlined calls
		// only: inlined procedures get free cost *attribution* (a
		// runtime timer could not observe them at all).
		i.timers = gptl.New(func() float64 { return i.cycles })
	}
	return i, nil
}

// Run initializes module storage and executes the main program.
func (i *Interp) Run() (*Result, error) {
	if i.vmr != nil {
		return i.vmr.run()
	}
	if err := i.initModules(); err != nil {
		return i.result(), err
	}
	fr, err := i.newFrame(i.prog.Main)
	if err != nil {
		return i.result(), err
	}
	_, err = i.execStmts(fr, i.prog.Main.Body)
	return i.result(), err
}

func (i *Interp) result() *Result {
	return &Result{
		Cycles:         i.cycles,
		Casts:          i.casts,
		CastCycles:     i.castCycles,
		Steps:          i.steps,
		Timers:         i.timers,
		ProcCastCycles: i.procCasts,
	}
}

// Cycles returns the simulated cycles consumed so far.
func (i *Interp) Cycles() float64 {
	if i.vmr != nil {
		return i.vmr.cycles
	}
	return i.cycles
}

// Global returns the value of a module variable by qualified name
// ("module.var"), used by model harnesses to read output time series.
func (i *Interp) Global(qname string) (Value, bool) {
	for _, m := range i.prog.Modules {
		for _, d := range m.Decls {
			if d.QName() == qname {
				if i.vmr != nil {
					return i.vmr.globalValue(m, d), true
				}
				return i.globals[m.Index][d.Slot], true
			}
		}
	}
	return Value{}, false
}

// GlobalFloats returns a copy of a real module array's contents.
func (i *Interp) GlobalFloats(qname string) ([]float64, bool) {
	v, ok := i.Global(qname)
	if !ok || v.Arr == nil {
		return nil, false
	}
	return append([]float64(nil), v.Arr.Data...), true
}

// GlobalFloat returns a real or integer module scalar as float64.
func (i *Interp) GlobalFloat(qname string) (float64, bool) {
	v, ok := i.Global(qname)
	if !ok || v.Arr != nil {
		return 0, ok && false
	}
	return v.asFloat(), true
}

// initModules allocates and initializes module-level storage in module
// declaration order.
func (i *Interp) initModules() error {
	i.globals = make([][]Value, len(i.prog.Modules))
	for _, m := range i.prog.Modules {
		i.globals[m.Index] = make([]Value, len(m.Decls))
	}
	for _, m := range i.prog.Modules {
		for _, d := range m.Decls {
			v, err := i.initDecl(nil, d)
			if err != nil {
				return err
			}
			i.globals[m.Index][d.Slot] = v
		}
	}
	return nil
}

// initDecl builds the initial value for a declaration; fr may be nil for
// module-level declarations.
func (i *Interp) initDecl(fr *frame, d *ft.VarDecl) (Value, error) {
	if d.IsArray() {
		lo := make([]int, len(d.Dims))
		ext := make([]int, len(d.Dims))
		for k, dim := range d.Dims {
			if dim.Assumed {
				return Value{}, &RunError{Pos: d.Pos, Kind: FailInternal,
					Msg: fmt.Sprintf("assumed-shape array %q has no bound actual", d.Name)}
			}
			loV := 1
			if dim.Lo != nil {
				v, err := i.evalExpr(fr, dim.Lo)
				if err != nil {
					return Value{}, err
				}
				loV = int(v.asInt())
			}
			hiV, err := i.evalExpr(fr, dim.Hi)
			if err != nil {
				return Value{}, err
			}
			lo[k] = loV
			ext[k] = int(hiV.asInt()) - loV + 1
			if ext[k] < 0 {
				ext[k] = 0
			}
		}
		if d.Base != ft.TReal {
			return Value{}, &RunError{Pos: d.Pos, Kind: FailInternal,
				Msg: fmt.Sprintf("array %q: only real arrays are supported", d.Name)}
		}
		arr := NewArray(d.Kind, lo, ext)
		if i.nrec != nil {
			arr.Shadow = make([]float64, len(arr.Data))
		}
		return Value{Base: ft.TReal, Kind: d.Kind, Arr: arr}, nil
	}
	var v Value
	switch d.Base {
	case ft.TReal:
		v = realValue(0, d.Kind)
	case ft.TInteger:
		v = intValue(0)
	case ft.TLogical:
		v = logicalValue(false)
	}
	if d.Init != nil {
		iv, err := i.evalExpr(fr, d.Init)
		if err != nil {
			return Value{}, err
		}
		v = convertScalar(iv, d.Type())
	}
	return v, nil
}

// convertScalar coerces a scalar value to the declared type (no cost
// accounting; cost is charged at the operation that required it). The
// shadow lane passes through unrounded: conversion narrows the primary
// only (the field copy is free, so this is not recorder-gated).
func convertScalar(v Value, t ft.Type) Value {
	switch t.Base {
	case ft.TReal:
		nv := realValue(v.asFloat(), t.Kind)
		nv.Sh = v.sh()
		return nv
	case ft.TInteger:
		return intValue(v.asInt())
	case ft.TLogical:
		return logicalValue(v.B)
	default:
		return v
	}
}

// newFrame allocates a frame and initializes its non-argument locals.
func (i *Interp) newFrame(p *ft.Procedure) (*frame, error) {
	fr := &frame{proc: p, slots: make([]Value, p.NumSlots)}
	for _, d := range p.Decls {
		if d.IsArg {
			continue
		}
		v, err := i.initDecl(fr, d)
		if err != nil {
			return nil, err
		}
		fr.slots[d.Slot] = v
	}
	return fr, nil
}

// op charges one scalar operation at the current vectorization factor.
// Loads and stores are bandwidth-bound: their vector discount is clamped
// to the model's memory floor.
func (i *Interp) op(c perfmodel.OpClass, kind int) {
	f := i.vecFactor
	if c == perfmodel.OpLoad || c == perfmodel.OpStore {
		f = i.model.MemFactor(f)
	}
	i.cycles += i.model.OpCost(c, kind) * f
}

// opN charges n operations at an explicit factor (clamped for memory).
func (i *Interp) opN(c perfmodel.OpClass, kind int, n float64, factor float64) {
	if c == perfmodel.OpLoad || c == perfmodel.OpStore {
		factor = i.model.MemFactor(factor)
	}
	i.cycles += i.model.OpCost(c, kind) * n * factor
}

// cast charges a kind-conversion and attributes it.
func (i *Interp) cast(n int64) {
	cost := i.model.OpCost(perfmodel.OpCast, 8) * float64(n) * i.vecFactor
	i.cycles += cost
	i.casts += n
	i.castCycles += cost
	if len(i.curProc) > 0 {
		i.procCasts[i.curProc[len(i.curProc)-1]] += cost
	}
}

func (i *Interp) checkBudget(pos ft.Pos) error {
	if i.cfg.CycleBudget > 0 && i.cycles >= i.cfg.CycleBudget {
		return &RunError{Pos: pos, Kind: FailTimeout,
			Msg: fmt.Sprintf("exceeded %.0f cycles", i.cfg.CycleBudget)}
	}
	i.steps++
	if i.cfg.Context != nil && i.steps%cancelPollInterval == 0 {
		if err := i.cfg.Context.Err(); err != nil {
			return &RunError{Pos: pos, Kind: FailCancelled, Msg: err.Error()}
		}
	}
	return nil
}

// execStmts executes a statement list.
func (i *Interp) execStmts(fr *frame, stmts []ft.Stmt) (control, error) {
	for _, s := range stmts {
		ctl, err := i.execStmt(fr, s)
		if err != nil {
			return ctlNone, err
		}
		if ctl != ctlNone {
			return ctl, nil
		}
	}
	return ctlNone, nil
}

func (i *Interp) execStmt(fr *frame, s ft.Stmt) (control, error) {
	if err := i.checkBudget(s.StmtPos()); err != nil {
		return ctlNone, err
	}
	switch s := s.(type) {
	case *ft.AssignStmt:
		return ctlNone, i.execAssign(fr, s)
	case *ft.IfStmt:
		i.op(perfmodel.OpBranch, 4)
		cond, err := i.evalExpr(fr, s.Cond)
		if err != nil {
			return ctlNone, err
		}
		if cond.B {
			return i.execStmts(fr, s.Then)
		}
		return i.execStmts(fr, s.Else)
	case *ft.DoStmt:
		return i.execDo(fr, s)
	case *ft.DoWhileStmt:
		return i.execDoWhile(fr, s)
	case *ft.CallStmt:
		return ctlNone, i.execCall(fr, s)
	case *ft.ReturnStmt:
		return ctlReturn, nil
	case *ft.ExitStmt:
		return ctlExit, nil
	case *ft.CycleStmt:
		return ctlCycle, nil
	case *ft.StopStmt:
		if s.Code == nil {
			return ctlNone, &RunError{Pos: s.Pos, Kind: FailStop, Msg: "stop"}
		}
		v, err := i.evalExpr(fr, s.Code)
		if err != nil {
			return ctlNone, err
		}
		return ctlNone, &RunError{Pos: s.Pos, Kind: FailStop,
			Msg: fmt.Sprintf("stop %s", v)}
	case *ft.PrintStmt:
		if i.stdout != nil {
			for k, a := range s.Args {
				v, err := i.evalExpr(fr, a)
				if err != nil {
					return ctlNone, err
				}
				if k > 0 {
					fmt.Fprint(i.stdout, " ")
				}
				fmt.Fprint(i.stdout, v.String())
			}
			fmt.Fprintln(i.stdout)
		} else {
			// PRINT arguments may have side effects; evaluate regardless.
			for _, a := range s.Args {
				if _, err := i.evalExpr(fr, a); err != nil {
					return ctlNone, err
				}
			}
		}
		return ctlNone, nil
	default:
		return ctlNone, &RunError{Pos: s.StmtPos(), Kind: FailInternal,
			Msg: fmt.Sprintf("unknown statement %T", s)}
	}
}

func (i *Interp) execDo(fr *frame, s *ft.DoStmt) (control, error) {
	from, err := i.evalExpr(fr, s.From)
	if err != nil {
		return ctlNone, err
	}
	to, err := i.evalExpr(fr, s.To)
	if err != nil {
		return ctlNone, err
	}
	step := int64(1)
	if s.Step != nil {
		sv, err := i.evalExpr(fr, s.Step)
		if err != nil {
			return ctlNone, err
		}
		step = sv.asInt()
		if step == 0 {
			return ctlNone, &RunError{Pos: s.Pos, Kind: FailInternal, Msg: "DO step is zero"}
		}
	}
	// Vectorization: enter the discounted pricing regime for the body.
	dec := i.an.Loop(s)
	savedFactor := i.vecFactor
	if dec.Vectorized {
		i.vecFactor = dec.Factor
	}
	defer func() { i.vecFactor = savedFactor }()

	vslot := s.Var.Decl
	lo, hi := from.asInt(), to.asInt()
	for v := lo; (step > 0 && v <= hi) || (step < 0 && v >= hi); v += step {
		i.storeScalar(fr, vslot, intValue(v))
		i.op(perfmodel.OpLoopIter, 4)
		if err := i.checkBudget(s.Pos); err != nil {
			return ctlNone, err
		}
		ctl, err := i.execStmts(fr, s.Body)
		if err != nil {
			return ctlNone, err
		}
		switch ctl {
		case ctlExit:
			return ctlNone, nil
		case ctlReturn:
			return ctlReturn, nil
		}
	}
	return ctlNone, nil
}

func (i *Interp) execDoWhile(fr *frame, s *ft.DoWhileStmt) (control, error) {
	for {
		if err := i.checkBudget(s.Pos); err != nil {
			return ctlNone, err
		}
		i.op(perfmodel.OpBranch, 4)
		cond, err := i.evalExpr(fr, s.Cond)
		if err != nil {
			return ctlNone, err
		}
		if !cond.B {
			return ctlNone, nil
		}
		ctl, err := i.execStmts(fr, s.Body)
		if err != nil {
			return ctlNone, err
		}
		switch ctl {
		case ctlExit:
			return ctlNone, nil
		case ctlReturn:
			return ctlReturn, nil
		}
	}
}

// procName is the procedure currently executing, for numerics
// attribution (the main program reports as "main").
func (i *Interp) procName() string {
	if n := len(i.curProc); n > 0 {
		return i.curProc[n-1]
	}
	return "main"
}

// storeScalar writes a scalar slot (local or module).
func (i *Interp) storeScalar(fr *frame, d *ft.VarDecl, v Value) {
	if d.Proc != nil {
		fr.slots[d.Slot] = v
	} else {
		i.globals[d.InMod.Index][d.Slot] = v
	}
}

// loadVar reads a variable slot.
func (i *Interp) loadVar(fr *frame, d *ft.VarDecl) Value {
	if d.Proc != nil {
		return fr.slots[d.Slot]
	}
	return i.globals[d.InMod.Index][d.Slot]
}
