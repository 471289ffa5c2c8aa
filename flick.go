// Package flick is a flexible, optimizing IDL compiler kit: a Go
// reproduction of Flick (Eide, Frei, Ford, Lepreau, Lindstrom — PLDI
// 1997).
//
// Flick compiles interface definitions written in CORBA IDL, the ONC RPC
// language, or a MIG subset through a series of intermediate
// representations — AOI (the network contract), MINT/CAST-or-Go/PRES (the
// programmer's contract) — into optimized marshal/unmarshal stubs for the
// XDR, CORBA CDR/IIOP, Mach 3, and Fluke message encodings.
//
// The generated Go stubs link against package flick/rt. Baseline code
// styles (rpcgen-like, PowerRPC-like) and interpretive marshalers
// (ILU-like, ORBeline-like) reproduce the comparison systems of the
// paper's evaluation.
package flick

import (
	"fmt"
	"strings"

	"flick/internal/aoi"
	"flick/internal/backend/cstub"
	"flick/internal/backend/gostub"
	"flick/internal/frontend/corbaidl"
	"flick/internal/frontend/mig"
	"flick/internal/frontend/oncrpc"
	"flick/internal/mir"
	"flick/internal/pgen"
	"flick/internal/presc"
	"flick/internal/verify"
	"flick/internal/wire"
)

// Options selects the front end, presentation, back end, and optimization
// set for one compilation.
type Options struct {
	// IDL names the source language: "corba", "oncrpc", "mig", or
	// "auto" (chosen by file extension: .x → oncrpc, .defs → mig,
	// anything else → corba).
	IDL string
	// Lang is the target language: "go" (runnable stubs) or "c" (the
	// paper's original target, emitted through CAST).
	Lang string
	// Format is the wire encoding: "xdr", "cdr", "cdr-le", "mach3",
	// "fluke".
	Format string
	// Style is the code style: "flick" (optimized), "rpcgen", or
	// "powerrpc" (naive baselines).
	Style string
	// Package names the generated Go package.
	Package string
	// FuncSuffix is appended to generated function names, allowing
	// several configurations to coexist in one package.
	FuncSuffix string
	// SkipDecls omits presented type declarations.
	SkipDecls bool
	// EmitRPC adds client stubs and a server dispatcher (Go only).
	EmitRPC bool
	// Surfaces selects the presentation surfaces emitted over the
	// shared marshal core ("sync", "async", "stream"), in order. Empty
	// means sync only. Go with EmitRPC only.
	Surfaces string
	// SurfacesOnly emits only the surface shells, for adding surfaces
	// to a package whose marshal core and dispatcher another
	// configuration already generated.
	SurfacesOnly bool
	// Side selects the client or server presentation (C only; the Go
	// back end emits both halves).
	Side string
	// Presentation forces a C mapping style ("corba", "rpcgen",
	// "fluke"); empty picks by IDL and format.
	Presentation string
	// DisableGroup/Chunk/Memcpy/Inline switch off individual
	// optimizations (for ablation studies).
	DisableGroup  bool
	DisableChunk  bool
	DisableMemcpy bool
	DisableInline bool
	// ZeroCopy emits the zero-copy call shapes for byte regions the MIR
	// alias pass proved alias-safe: marshal-side sends by reference
	// (vectored writes on capable transports), decode-side views borrow
	// the receive arena. Go stubs in the flick style only; requires the
	// memcpy optimization.
	ZeroCopy bool
	// Stats, when non-nil, accumulates the optimizer's per-stub counters
	// for this compilation (`flick -stats`). The C back end has no
	// per-stub boundary in its emitter, so its counters land in
	// Stats.Total only.
	Stats *gostub.Stats
	// Verify selects how much stage-boundary IR verification runs: the
	// zero value (verify.On) checks the PRES-C presentation (MINT message
	// shapes + PRES mapping trees + target decls) before the back end and
	// every post-optimize MIR program before emission; verify.Off skips
	// both (`flick -verify=off`); verify.Strict adds the O(n²) chunk
	// overlap checks (`flick -verify=strict`).
	Verify verify.Mode
}

func (o Options) mirOptions() *mir.Options {
	m := mir.AllOptimizations()
	switch o.Style {
	case "", "flick":
	default:
		m = mir.NoOptimizations()
	}
	if o.DisableGroup {
		m.GroupEnsures = false
	}
	if o.DisableChunk {
		m.Chunk = false
	}
	if o.DisableMemcpy {
		m.Memcpy = false
	}
	if o.DisableInline {
		m.Inline = false
	}
	return &m
}

// Parse runs the selected front end and returns the AOI network contract.
func Parse(filename, src string, idl string) (*aoi.File, error) {
	switch resolveIDL(filename, idl) {
	case "corba":
		return corbaidl.Parse(filename, src)
	case "oncrpc":
		return oncrpc.Parse(filename, src)
	case "mig":
		return nil, fmt.Errorf("flick: the MIG front end produces PRES-C directly; use Compile")
	default:
		return nil, fmt.Errorf("flick: unknown IDL %q", idl)
	}
}

func resolveIDL(filename, idl string) string {
	if idl != "" && idl != "auto" {
		return idl
	}
	switch {
	case strings.HasSuffix(filename, ".x"):
		return "oncrpc"
	case strings.HasSuffix(filename, ".defs"):
		return "mig"
	default:
		return "corba"
	}
}

// Compile runs the full pipeline: front end → presentation generator →
// back end, returning generated source text.
func Compile(filename, src string, opt Options) (string, error) {
	if opt.Lang == "" {
		opt.Lang = "go"
	}
	if opt.Format == "" {
		opt.Format = "xdr"
	}
	if opt.Package == "" {
		opt.Package = "stubs"
	}
	format, ok := wire.ByName(opt.Format)
	if !ok {
		return "", fmt.Errorf("flick: unknown wire format %q", opt.Format)
	}

	idl := resolveIDL(filename, opt.IDL)
	var pf *presc.File
	if idl == "mig" {
		if opt.Lang == "c" {
			return "", fmt.Errorf("flick: the MIG front end currently presents Go stubs only (the original MIG mapping is C- and Mach-specific); use -lang go")
		}
		// MIG's conjoined front end + presentation generator.
		var err error
		pf, err = mig.Parse(filename, src, sideOf(opt.Side))
		if err != nil {
			return "", err
		}
	} else {
		af, err := Parse(filename, src, idl)
		if err != nil {
			return "", err
		}
		if opt.Lang == "c" {
			style := opt.Presentation
			if style == "" {
				style = cPresentationFor(idl, opt.Format)
			}
			pf, err = pgen.GenerateC(af, sideOf(opt.Side), style)
		} else {
			pf, err = pgen.GenerateGo(af, sideOf(opt.Side))
		}
		if err != nil {
			return "", err
		}
	}

	// Stage boundary: verify the presentation (MINT message shapes, PRES
	// mapping trees, target declarations) before handing it to a back
	// end, so a presentation-generator bug is reported against the IR
	// node that carries it rather than as corrupt generated code.
	if opt.Verify != verify.Off {
		var vc *verify.Counters
		if opt.Stats != nil {
			vc = &opt.Stats.Verify
		}
		if fs := verify.PRESC(pf, vc); len(fs) > 0 {
			return "", fs.AsError()
		}
	}

	// What only one back end implements is refused for the other, not
	// silently ignored.
	if opt.Lang == "go" && opt.Side == "server" {
		return "", fmt.Errorf("flick: -side server selects the C server presentation (Go stubs carry both halves); use -lang c")
	}
	if opt.Lang != "go" {
		for _, goOnly := range []struct {
			set       bool
			flag, why string
		}{
			{opt.ZeroCopy, "-zerocopy", "targets the Go runtime's alias paths"},
			{opt.Surfaces != "", "-surfaces", "selects presentations of the generated Go client"},
			{opt.SurfacesOnly, "-surfaces-only", "adds surface shells to a generated Go package"},
		} {
			if goOnly.set {
				return "", fmt.Errorf("flick: %s %s; use -lang go", goOnly.flag, goOnly.why)
			}
		}
	}
	if opt.ZeroCopy {
		if s := opt.Style; s != "" && s != "flick" {
			return "", fmt.Errorf("flick: -zerocopy requires the optimizing style (got %q)", s)
		}
		if opt.DisableMemcpy {
			return "", fmt.Errorf("flick: -zerocopy requires the memcpy optimization (disabled by -disable memcpy)")
		}
	}

	switch opt.Lang {
	case "go":
		var surfaces []gostub.Surface
		if opt.Surfaces != "" {
			var err error
			surfaces, err = gostub.ParseSurfaces(opt.Surfaces)
			if err != nil {
				return "", err
			}
		}
		return gostub.Generate(pf, gostub.Config{
			Package:      opt.Package,
			Format:       format,
			Style:        styleOf(opt.Style),
			Opts:         opt.mirOptions(),
			FuncSuffix:   opt.FuncSuffix,
			SkipDecls:    opt.SkipDecls,
			EmitRPC:      opt.EmitRPC,
			Surfaces:     surfaces,
			SurfacesOnly: opt.SurfacesOnly,
			Stats:        opt.Stats,
			Verify:       opt.Verify,
			ZeroCopy:     opt.ZeroCopy,
		})
	case "c":
		copts := *opt.mirOptions()
		ccfg := cstub.Config{Format: format, Opts: copts, Verify: opt.Verify}
		if opt.Stats != nil {
			ccfg.Opts.Stats = &opt.Stats.Total
			ccfg.VerifyCounters = &opt.Stats.Verify
		}
		return cstub.Generate(pf, ccfg)
	default:
		return "", fmt.Errorf("flick: unknown target language %q", opt.Lang)
	}
}

// cPresentationFor picks the C mapping rules for an IDL and format: ONC
// sources present rpcgen-style; CORBA sources present CORBA-style; the
// Fluke format uses the Fluke variant derived from the CORBA library.
func cPresentationFor(idl, format string) string {
	if idl == "oncrpc" {
		return "rpcgen"
	}
	if format == "fluke" {
		return "fluke"
	}
	return "corba"
}

func sideOf(s string) presc.Side {
	if s == "server" {
		return presc.Server
	}
	return presc.Client
}

func styleOf(s string) gostub.Style {
	switch s {
	case "rpcgen":
		return gostub.StyleRpcgen
	case "powerrpc":
		return gostub.StylePowerRPC
	default:
		return gostub.StyleFlick
	}
}
