// Package cc is the public facade of the ccbm library, a Go
// reproduction of "Causal Consistency: Beyond Memory" (Perrin,
// Mostéfaoui, Jard — PPoPP 2016).
//
// The library is split into a contract and an engine. The engine — the
// exact search procedures, the replicated-object runtime, the network
// simulator — lives under internal/ and may change freely between
// versions. The contract is this package tree:
//
//   - cc (this package): the sequential-specification model shared by
//     everything else — operations, inputs, outputs, abstract data
//     types — plus the textual ADT registry.
//   - cc/histories: distributed histories (labelled partial orders of
//     events), their builder, and the text formats the tools speak.
//   - cc/checker: the consistency criteria themselves — a string-keyed
//     registry of checkers, context-aware single-history checking, and
//     the streaming batch classifier.
//   - cc/cluster: the serving runtime — a sharded replicated object
//     store with pluggable replication backends ("broadcast" or
//     anti-entropy gossip, Config.Replication), elastic topology
//     (objects placed on a bounded-load consistent-hash ring;
//     AddShard/DrainShard migrate them live without breaking causal
//     session guarantees), scripted fault injection (partition/heal,
//     crash/restart, link degradation via ApplyFault), convergence
//     fingerprints, and an online monitor streaming live windows into
//     the checkers.
//   - cc/cluster/wire: the versioned wire protocol — request/response
//     structs, typed error codes with pinned HTTP statuses, fault,
//     ring-topology (epoch'd placement; stale_ring redirects), and
//     readiness messages.
//   - cc/client: the client SDK — sessions, futures, batching, and
//     self-healing (bounded jittered retry, per-session failover that
//     re-attaches the causal frontier so read-your-writes survives the
//     move, per-replica circuit breakers).
//   - cc/sla: consistency SLAs — staleness tracking and
//     utility-maximizing adaptive read routing over the criteria
//     hierarchy.
//   - cc/bench: the workload and load-measurement subsystem — a
//     registry of named scenarios (read-heavy, write-heavy,
//     session-cart, insert-grow, scan-range) each declaring its ADT
//     mix, key distribution and op percentages; an open-loop driver
//     whose latency clock starts at each op's *intended* arrival
//     (coordinated-omission-safe); a log-bucketed histogram; and a
//     knee-finding ramp controller.
//
// # Quickstart
//
//	h, err := histories.Parse("adt: W2\np0: w(1) r/(0,1)\np1: w(2) r/(0,2)")
//	if err != nil { ... }
//	res, err := checker.Check(ctx, "CC", h, checker.WithTimeout(2*time.Second))
//	if err != nil { ... }
//	fmt.Println(res.Satisfied)
//
// The types in this package are aliases of the engine's own: values
// returned by internal constructors and by the public facade are
// interchangeable, and the facade adds no wrapping cost.
package cc

import (
	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/spec"
)

// Version is the facade's semantic version. The cc package tree
// follows the usual compatibility contract: exported identifiers are
// only added, never removed or re-typed, within a major version (the
// API-lock test pins the surface).
const Version = "v0.10.0"

// The sequential-specification model (Sec. 2.1 of the paper): an ADT
// is a deterministic transition system over immutable states, an
// operation is an input symbol paired with the output it returned.
type (
	// ADT is a sequential specification: a transition system with an
	// initial state, a step function, and update/query classification.
	ADT = spec.ADT
	// State is one immutable ADT state.
	State = spec.State
	// Input is a method invocation: name plus integer arguments.
	Input = spec.Input
	// Output is a returned value: ⊥, one integer, or a tuple.
	Output = spec.Output
	// Operation is an input paired with its recorded output, possibly
	// hidden (no output to justify, Def. 2).
	Operation = spec.Operation
)

// Bot is the ⊥ output (updates whose return value is not observed).
var Bot = spec.Bot

// NewInput builds an input symbol.
func NewInput(method string, args ...int) Input { return spec.NewInput(method, args...) }

// IntOutput builds a single-integer output.
func IntOutput(v int) Output { return spec.IntOutput(v) }

// TupleOutput builds a tuple output.
func TupleOutput(vs ...int) Output { return spec.TupleOutput(vs...) }

// NewOp pairs an input with its recorded output.
func NewOp(in Input, out Output) Operation { return spec.NewOp(in, out) }

// HiddenOp builds a hidden operation (Def. 2): an input whose output
// the checkers never need to justify.
func HiddenOp(in Input) Operation { return spec.HiddenOp(in) }

// ParseOperation parses the tools' textual operation syntax, e.g.
// "w(1)", "r/(0,1)", "rx/3".
func ParseOperation(s string) (Operation, error) { return spec.ParseOperation(s) }

// FormatSeq renders operations as the paper's dot-separated word.
func FormatSeq(seq []Operation) string { return spec.FormatSeq(seq) }

// Run applies the inputs to t from its initial state and returns the
// final state with every output produced along the way.
func Run(t ADT, ins []Input) (State, []Output) { return spec.Run(t, ins) }

// Admissible reports whether the operation sequence is a word of the
// ADT's sequential language L(T): every visible output matches the one
// the specification produces.
func Admissible(t ADT, seq []Operation) bool { return spec.Admissible(t, seq) }

// LookupADT resolves a textual ADT name — the same names history files
// use in their "adt:" header. Recognized forms include "W2" (window
// stream), "W2^4" (window-stream array), "M[a-e]" (integer memory),
// "Queue", "Queue2", "Stack", "Counter", "GSet", "Sequence",
// "Register", "CAS" and "RWSet"; see the history format documentation.
func LookupADT(name string) (ADT, error) { return adt.Lookup(name) }
