package main

import (
	"fmt"
	"strings"
	"time"

	"flick"
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

// The traced run needs a span around each compiler stage, and
// flick.Compile has no seam between its stages, so stagedCompile calls
// the stages' public functions in flick.Compile's order, with
// flick.Compile's defaults. Set-up checks that both produce the same
// bytes for every unit.

// stageSpans is one staged compilation's stage intervals (ns), plus
// what the stages counted.
type stageSpans struct {
	parse, pgen, presc, backend time.Duration
	aoiOps, stubs               int
}

func idlOf(file, idl string) string {
	if idl != "" && idl != "auto" {
		return idl
	}
	switch {
	case strings.HasSuffix(file, ".x"):
		return "oncrpc"
	case strings.HasSuffix(file, ".defs"):
		return "mig"
	}
	return "corba"
}

func mirOptionsOf(o flick.Options) mir.Options {
	m := mir.AllOptimizations()
	if o.Style != "" && o.Style != "flick" {
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
	return m
}

func styleOf(s string) gostub.Style {
	switch s {
	case "rpcgen":
		return gostub.StyleRpcgen
	case "powerrpc":
		return gostub.StylePowerRPC
	}
	return gostub.StyleFlick
}

// stagedCompile compiles u with verification mode, filling sp and
// accumulating optimizer and verifier counters into stats.
func stagedCompile(u *unit, mode verify.Mode, stats *gostub.Stats, sp *stageSpans) (string, error) {
	o := u.opt
	format, ok := wire.ByName(o.Format)
	if !ok {
		return "", fmt.Errorf("unknown wire format %q", o.Format)
	}
	idl := idlOf(u.file, o.IDL)

	var pf *presc.File
	var err error
	t0 := time.Now()
	if idl == "mig" {
		// MIG's front end and presentation generator are one stage.
		pf, err = mig.Parse(u.file, u.src, presc.Client)
		sp.parse = time.Since(t0)
	} else {
		var af *aoi.File
		if idl == "oncrpc" {
			af, err = oncrpc.Parse(u.file, u.src)
		} else {
			af, err = corbaidl.Parse(u.file, u.src)
		}
		t1 := time.Now()
		sp.parse = t1.Sub(t0)
		if err != nil {
			return "", err
		}
		for _, in := range af.Interfaces {
			sp.aoiOps += len(in.Ops)
		}
		if o.Lang == "c" {
			style := "corba"
			if idl == "oncrpc" {
				style = "rpcgen"
			} else if o.Format == "fluke" {
				style = "fluke"
			}
			pf, err = pgen.GenerateC(af, presc.Client, style)
		} else {
			pf, err = pgen.GenerateGo(af, presc.Client)
		}
		sp.pgen = time.Since(t1)
	}
	if err != nil {
		return "", err
	}
	sp.stubs = len(pf.Stubs)

	if mode != verify.Off {
		t := time.Now()
		fs := verify.PRESC(pf, &stats.Verify)
		sp.presc = time.Since(t)
		if len(fs) > 0 {
			return "", fs.AsError()
		}
	}

	t := time.Now()
	defer func() { sp.backend = time.Since(t) }()
	opts := mirOptionsOf(o)
	if o.Lang == "c" {
		opts.Stats = &stats.Total
		return cstub.Generate(pf, cstub.Config{Format: format, Opts: opts, Verify: mode, VerifyCounters: &stats.Verify})
	}
	var surfaces []gostub.Surface
	if o.Surfaces != "" {
		if surfaces, err = gostub.ParseSurfaces(o.Surfaces); err != nil {
			return "", err
		}
	}
	return gostub.Generate(pf, gostub.Config{
		Package: o.Package, Format: format, Style: styleOf(o.Style), Opts: &opts,
		FuncSuffix: o.FuncSuffix, SkipDecls: o.SkipDecls, EmitRPC: o.EmitRPC,
		Surfaces: surfaces, SurfacesOnly: o.SurfacesOnly,
		Stats: stats, Verify: mode, ZeroCopy: o.ZeroCopy,
	})
}
