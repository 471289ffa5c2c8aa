// Command flick is the Flick-Go IDL compiler driver: it parses a CORBA
// IDL, ONC RPC, or MIG source file, runs a presentation generator, and
// emits stubs through the selected back end.
//
// Examples:
//
//	flick -idl corba -lang go -format xdr -o stubs.go mail.idl
//	flick -idl oncrpc -lang go -format xdr -style rpcgen -o naive.go mail.x
//	flick -idl corba -lang c -format cdr -o mail.c mail.idl
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flick"
	"flick/internal/backend/gostub"
	"flick/internal/verify"
)

func main() {
	var opt flick.Options
	var out string
	idl := flag.String("idl", "auto", "IDL language: corba, oncrpc, mig, or auto (by extension)")
	lang := flag.String("lang", "go", "target language: go or c")
	format := flag.String("format", "xdr", "wire format: xdr, cdr, cdr-le, mach3, fluke")
	style := flag.String("style", "flick", "code style: flick, rpcgen, powerrpc")
	pkg := flag.String("package", "stubs", "generated Go package name")
	suffix := flag.String("suffix", "", "suffix appended to generated function names")
	skipDecls := flag.Bool("skip-decls", false, "omit presented type declarations")
	rpc := flag.Bool("rpc", true, "emit client stubs and server dispatch (Go only)")
	surfaces := flag.String("surfaces", "", "comma-separated presentation surfaces: sync, async, stream, ctx (default sync)")
	surfacesOnly := flag.Bool("surfaces-only", false, "emit only the surface shells (marshal core generated elsewhere in the package)")
	side := flag.String("side", "client", "presentation side: client or server (C only)")
	flag.StringVar(&out, "o", "", "output file (default stdout)")
	noOpt := flag.String("disable", "", "comma-separated optimizations to disable: group,chunk,memcpy,inline,params")
	zeroCopy := flag.Bool("zerocopy", false, "emit zero-copy call shapes for prover-approved byte regions (Go, flick style)")
	stats := flag.Bool("stats", false, "print per-stub optimizer counters to stderr")
	verifyFlag := flag.String("verify", "on", "IR verification mode: on, off, or strict (adds O(n²) chunk overlap checks)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: flick [flags] file.idl")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	opt.IDL = *idl
	opt.Lang = *lang
	opt.Format = *format
	opt.Style = *style
	opt.Package = *pkg
	opt.FuncSuffix = *suffix
	opt.SkipDecls = *skipDecls
	opt.EmitRPC = *rpc
	opt.Surfaces = *surfaces
	opt.SurfacesOnly = *surfacesOnly
	opt.Side = *side
	opt.ZeroCopy = *zeroCopy
	for _, d := range strings.Split(*noOpt, ",") {
		switch strings.TrimSpace(d) {
		case "":
		case "group":
			opt.DisableGroup = true
		case "chunk":
			opt.DisableChunk = true
		case "memcpy":
			opt.DisableMemcpy = true
		case "inline":
			opt.DisableInline = true
		case "params":
			opt.DisableParams = true
		default:
			fatal(fmt.Errorf("unknown optimization %q", d))
		}
	}

	opt.Verify, err = verify.ParseMode(*verifyFlag)
	if err != nil {
		fatal(err)
	}

	if *stats {
		opt.Stats = &gostub.Stats{}
	}

	code, err := flick.Compile(flag.Arg(0), string(src), opt)
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprint(os.Stderr, opt.Stats.Report())
		if opt.Verify != verify.Off {
			fmt.Fprintln(os.Stderr, opt.Stats.Verify.Report())
		}
	}
	if out == "" {
		fmt.Print(code)
		return
	}
	if err := os.WriteFile(out, []byte(code), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flick:", err)
	os.Exit(1)
}
