// Package arch is the unified architecture-evaluation API of the
// reproduction: one error-returning builder over every machine knob the
// paper sweeps, and one evaluation call with two interchangeable engines —
// the closed-form analytic model (internal/cqla + internal/qla) and the
// discrete-event simulator (internal/des). New is the only way non-test
// code builds a machine: it starts from the paper's working point, applies
// the options to one cqla.Config and validates it with
// cqla.Config.Validate. Options are literal — WithTransferOverlap(0)
// models no overlap — and a machine's code is always a registry name
// (WithCodeName). The des engine's configuration reads the cqla model
// (cqla.Machine.CacheQubits) instead of re-deriving it.
//
// The intended flow is:
//
//	m, err := arch.New(arch.WithCodeName("bacon-shor"), arch.WithBlocks(36))
//	cw, err := m.Compile(arch.NewAdder(256, true))
//	var res arch.Result
//	err = cw.Evaluate(ctx, arch.EngineDES, &res)
//
// Every evaluation goes through a compiled workload, which holds the
// kernel's shared schedule plan and the machine it was compiled on:
// CompiledWorkload.Evaluate is the one evaluation call, and it names the
// engine. A Result carries the engine's metrics in order; the documents
// the CLI and `cqla serve` emit are explore's Report.
package arch

import (
	"fmt"

	"repro/internal/cqla"
	"repro/internal/ecc"
	"repro/internal/phys"
)

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

// settings accumulates options before validation: the machine model's
// configuration plus what only arch knows about the machine.
type settings struct {
	cq           cqla.Config
	codeErr      error
	simChannels  int
	simResidency int
}

// Option configures one knob of the machine under construction.
type Option func(*settings)

// WithCodeName selects the code by registry name ("steane" or
// "bacon-shor"); an unknown name surfaces as New's error.
func WithCodeName(name string) Option {
	return func(s *settings) {
		c, err := CodeByName(name)
		s.cq.Code, s.codeErr = c, err
	}
}

// WithParams selects the ion-trap technology point.
func WithParams(p phys.Params) Option { return func(s *settings) { s.cq.Params = p } }

// WithBlocks sets the number of level-2 compute blocks.
func WithBlocks(n int) Option { return func(s *settings) { s.cq.ComputeBlocks = n } }

// WithTransfers sets the memory<->cache transfer-network width (the "Par
// Xfer" of Table 5).
func WithTransfers(n int) Option { return func(s *settings) { s.cq.ParallelTransfers = n } }

// WithCacheFactor sizes the level-1 cache as a multiple of the level-1
// compute region's data qubits.
func WithCacheFactor(f float64) Option { return func(s *settings) { s.cq.CacheFactor = f } }

// WithTransferOverlap sets the fraction of memory<->cache transfer latency
// the static schedule hides; zero models no overlap at all.
func WithTransferOverlap(f float64) Option { return func(s *settings) { s.cq.TransferOverlap = f } }

// WithSimChannels overrides the discrete-event engine's channel count.
func WithSimChannels(n int) Option { return func(s *settings) { s.simChannels = n } }

// WithSimResidency overrides the discrete-event engine's resident-qubit
// capacity (compute region plus cache).
func WithSimResidency(n int) Option { return func(s *settings) { s.simResidency = n } }

// Machine is a validated machine configuration with its analytic model
// instantiated; workloads compiled on it are evaluated against it.
type Machine struct {
	cq *cqla.Machine
	// simChannels and simResidency override the des engine's channel
	// count and resident-qubit capacity when nonzero (see desConfig).
	simChannels  int
	simResidency int
}

// resolve applies the options to the paper-default working point and
// validates the result. The default Steane code is built only when no
// option chose a code.
func resolve(opts []Option) (settings, error) {
	s := settings{
		cq: cqla.Config{
			Params:            phys.Projected(),
			ComputeBlocks:     36,
			ParallelTransfers: 10,
			CacheFactor:       cqla.CacheFactor,
			TransferOverlap:   cqla.TransferOverlap,
		},
	}
	for _, o := range opts {
		o(&s)
	}
	if s.codeErr != nil {
		return settings{}, s.codeErr
	}
	if s.cq.Code == nil {
		s.cq.Code = ecc.Steane()
	}
	if err := s.cq.Validate(); err != nil {
		return settings{}, err
	}
	if s.simChannels < 0 {
		return settings{}, fmt.Errorf("arch: %d sim channels, need >= 0 (0 derives from transfers)", s.simChannels)
	}
	if s.simResidency < 0 {
		return settings{}, fmt.Errorf("arch: %d sim resident qubits, need >= 0 (0 derives from blocks)", s.simResidency)
	}
	return s, nil
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
	cq, err := cqla.NewMachine(s.cq)
	if err != nil {
		return nil, err
	}
	return &Machine{cq: cq, simChannels: s.simChannels, simResidency: s.simResidency}, nil
}

// Code returns the machine's error-correction code.
func (m *Machine) Code() *ecc.Code { return m.cq.Config().Code }

// Analytic exposes the underlying closed-form cqla model for callers that
// need methods the engine metrics do not cover (figure drivers, the
// floorplan, the QLA baseline).
func (m *Machine) Analytic() *cqla.Machine { return m.cq }
