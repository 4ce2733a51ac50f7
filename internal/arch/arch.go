// Package arch is the unified architecture-evaluation API of the
// reproduction: one error-returning builder over every machine knob the
// paper sweeps, and one Engine interface with interchangeable evaluation
// backends — the closed-form analytic model (internal/cqla + internal/qla)
// and the discrete-event simulator (internal/des). Where cqla.Config keeps
// zero-value sentinels for backward compatibility (zero means "paper
// default", a negative overlap means "literally none"), arch options are
// literal: WithTransferOverlap(0) models no overlap, and omitting an
// option selects the paper default explicitly at build time.
//
// The intended flow is:
//
//	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(36))
//	eng, err := m.Engine(arch.EngineDES)
//	cw, err := m.Compile(arch.NewAdder(256, true))
//	res, err := arch.EvaluateCompiled(ctx, eng, cw)
//
// Every evaluation goes through a compiled workload: the engines' one
// evaluation method, Engine.EvaluateCompiledInto, takes the compiled form
// (which holds the kernel's shared schedule plan), and EvaluateCompiled is
// its allocating wrapper.
//
// Result is a versioned, JSON-stable envelope (SchemaVersion, config echo,
// ordered named metrics) shared with the explore emitters and the `cqla
// serve` endpoint, so every consumer — sweep tables, HTTP clients, golden
// tests — reads the same shape.
package arch

import (
	"fmt"

	"repro/internal/cqla"
	"repro/internal/ecc"
	"repro/internal/phys"
	"repro/internal/qla"
)

// Config is the fully resolved machine configuration echoed into every
// Result envelope. All fields are literal: no zero-value sentinels remain
// after New.
type Config struct {
	// Code is the error-correction code of the machine's regions, by
	// registry name ("steane" or "bacon-shor").
	Code string `json:"code"`
	// Phys names the ion-trap technology point ("projected" or "current").
	Phys string `json:"phys"`
	// Blocks is the number of level-2 compute blocks.
	Blocks int `json:"blocks"`
	// Transfers is the memory<->cache transfer-network width.
	Transfers int `json:"transfers"`
	// CacheFactor sizes the level-1 cache relative to the level-1 compute
	// region's data qubits.
	CacheFactor float64 `json:"cache_factor"`
	// Overlap is the fraction of transfer latency hidden by the static
	// schedule; 0 really means none.
	Overlap float64 `json:"overlap"`
	// SimChannels, if nonzero, overrides the discrete-event engine's
	// teleportation-channel count (otherwise derived from Transfers and the
	// code's per-transfer channel requirement).
	SimChannels int `json:"sim_channels,omitempty"`
	// SimResidency, if nonzero, overrides the discrete-event engine's
	// resident-qubit capacity (otherwise derived from Blocks and
	// CacheFactor).
	SimResidency int `json:"sim_residency,omitempty"`
}

// codes is the code registry: each registry name and its ecc constructor,
// Steane first (matching ecc.Codes order).
var codes = []struct {
	name  string
	build func() *ecc.Code
}{
	{"steane", ecc.Steane},
	{"bacon-shor", ecc.BaconShor},
}

// CodeNames lists the supported code names, Steane first (matching
// ecc.Codes order).
func CodeNames() []string {
	names := make([]string, len(codes))
	for i, c := range codes {
		names[i] = c.name
	}
	return names
}

// CodeByName resolves a registry code name to its ecc constructor.
func CodeByName(name string) (*ecc.Code, error) {
	for _, c := range codes {
		if c.name == name {
			return c.build(), nil
		}
	}
	return nil, fmt.Errorf("arch: unknown code %q (have %v)", name, CodeNames())
}

// settings accumulates options before validation.
type settings struct {
	code         *ecc.Code
	codeName     string
	codeErr      error
	params       phys.Params
	blocks       int
	transfers    int
	cacheFactor  float64
	overlap      float64
	simChannels  int
	simResidency int
}

// Option configures one knob of the machine under construction.
type Option func(*settings)

// WithCode selects the error-correction code of the machine's regions.
func WithCode(c *ecc.Code) Option {
	return func(s *settings) {
		s.code = c
		if c != nil {
			s.codeName = codeName(c)
		}
		s.codeErr = nil
	}
}

// WithCodeName selects the code by registry name ("steane" or
// "bacon-shor"); an unknown name surfaces as New's error.
func WithCodeName(name string) Option {
	return func(s *settings) {
		c, err := CodeByName(name)
		s.code, s.codeName, s.codeErr = c, name, err
	}
}

// WithParams selects the ion-trap technology point.
func WithParams(p phys.Params) Option { return func(s *settings) { s.params = p } }

// WithBlocks sets the number of level-2 compute blocks.
func WithBlocks(n int) Option { return func(s *settings) { s.blocks = n } }

// WithTransfers sets the memory<->cache transfer-network width (the "Par
// Xfer" of Table 5).
func WithTransfers(n int) Option { return func(s *settings) { s.transfers = n } }

// WithCacheFactor sizes the level-1 cache as a multiple of the level-1
// compute region's data qubits.
func WithCacheFactor(f float64) Option { return func(s *settings) { s.cacheFactor = f } }

// WithTransferOverlap sets the fraction of memory<->cache transfer latency
// the static schedule hides. Unlike cqla.Config, zero means literally zero
// overlap — there is no sentinel.
func WithTransferOverlap(f float64) Option { return func(s *settings) { s.overlap = f } }

// WithSimChannels overrides the discrete-event engine's channel count.
func WithSimChannels(n int) Option { return func(s *settings) { s.simChannels = n } }

// WithSimResidency overrides the discrete-event engine's resident-qubit
// capacity (compute region plus cache).
func WithSimResidency(n int) Option { return func(s *settings) { s.simResidency = n } }

// Machine is a validated machine configuration with its analytic model
// instantiated; engines evaluate workloads against it.
type Machine struct {
	cfg  Config
	code *ecc.Code
	phys phys.Params
	cq   *cqla.Machine
}

// resolve applies the options to the paper-default working point and
// validates the result.
func resolve(opts []Option) (settings, error) {
	s := settings{
		code:        ecc.Steane(),
		codeName:    "steane",
		params:      phys.Projected(),
		blocks:      36,
		transfers:   10,
		cacheFactor: cqla.CacheFactor,
		overlap:     cqla.TransferOverlap,
	}
	for _, o := range opts {
		o(&s)
	}
	if s.codeErr != nil {
		return settings{}, s.codeErr
	}
	if s.code == nil {
		return settings{}, fmt.Errorf("arch: nil code")
	}
	if s.blocks < 1 {
		return settings{}, fmt.Errorf("arch: %d compute blocks, need at least 1", s.blocks)
	}
	if s.transfers < 1 {
		return settings{}, fmt.Errorf("arch: %d parallel transfers, need at least 1", s.transfers)
	}
	if s.cacheFactor <= 0 {
		return settings{}, fmt.Errorf("arch: cache factor %g, need > 0", s.cacheFactor)
	}
	if s.overlap < 0 || s.overlap > 1 {
		return settings{}, fmt.Errorf("arch: transfer overlap %g outside [0, 1]", s.overlap)
	}
	if s.simChannels < 0 {
		return settings{}, fmt.Errorf("arch: %d sim channels, need >= 0 (0 derives from transfers)", s.simChannels)
	}
	if s.simResidency < 0 {
		return settings{}, fmt.Errorf("arch: %d sim resident qubits, need >= 0 (0 derives from blocks)", s.simResidency)
	}
	return s, nil
}

// config renders the resolved settings as the Result-envelope echo.
func (s *settings) config() Config {
	return Config{
		Code:         s.codeName,
		Phys:         s.params.Name,
		Blocks:       s.blocks,
		Transfers:    s.transfers,
		CacheFactor:  s.cacheFactor,
		Overlap:      s.overlap,
		SimChannels:  s.simChannels,
		SimResidency: s.simResidency,
	}
}

// Resolve applies the options to the paper-default working point and
// returns the fully resolved, validated configuration without building the
// machine's analytic models. Because Config is a comparable value it works
// as a cache key: two option lists resolving to the same Config produce
// machines with identical behavior, which is what explore's per-sweep
// machine cache relies on. (Codes selected via WithCode rather than the
// registry render by their short name; distinct hand-built codes sharing a
// short name would collide, so cache only registry-named machines.)
func Resolve(opts ...Option) (Config, error) {
	s, err := resolve(opts)
	if err != nil {
		return Config{}, err
	}
	return s.config(), nil
}

// New builds a Machine from the paper's default working point (Steane
// code, projected parameters, 36 compute blocks, 10 parallel transfers,
// the Section 5.2 cache factor and overlap) modified by the given options.
// It returns an error — never panics — on an inconsistent configuration.
func New(opts ...Option) (*Machine, error) {
	s, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	// Translate literal overlap into cqla's sentinel encoding.
	cqOverlap := s.overlap
	if cqOverlap == 0 {
		cqOverlap = cqla.NoTransferOverlap
	}
	cq, err := cqla.NewMachine(cqla.Config{
		Code:              s.code,
		Params:            s.params,
		ComputeBlocks:     s.blocks,
		ParallelTransfers: s.transfers,
		CacheFactor:       s.cacheFactor,
		TransferOverlap:   cqOverlap,
	})
	if err != nil {
		return nil, err
	}
	return &Machine{
		cfg:  s.config(),
		code: s.code,
		phys: s.params,
		cq:   cq,
	}, nil
}

// Config returns the resolved configuration echoed into Result envelopes.
func (m *Machine) Config() Config { return m.cfg }

// Code returns the machine's error-correction code.
func (m *Machine) Code() *ecc.Code { return m.code }

// Params returns the machine's technology point.
func (m *Machine) Params() phys.Params { return m.phys }

// Analytic exposes the underlying closed-form cqla model for callers that
// need methods the engine metrics do not cover (figure drivers, floorplan
// cross-checks).
func (m *Machine) Analytic() *cqla.Machine { return m.cq }

// Baseline returns the QLA model results are normalized against.
func (m *Machine) Baseline() qla.Model { return m.cq.Baseline() }

// codeName maps a code value back to its registry name by short label;
// unknown codes render their short name so the config echo stays
// informative.
func codeName(c *ecc.Code) string {
	for _, r := range codes {
		if r.build().Short == c.Short {
			return r.name
		}
	}
	return c.Short
}
