package flick_test

import (
	"strings"
	"testing"

	"flick"
)

const mailCorba = `
interface Mail {
	void send(in string msg);
};
`

const mailONC = `
program Mail {
	version V {
		void send(string) = 1;
	} = 1;
} = 0x20000001;
`

func TestParseAutoDetection(t *testing.T) {
	af, err := flick.Parse("mail.idl", mailCorba, "auto")
	if err != nil || af.IDL != "corba" {
		t.Errorf("idl auto = %v, %v", af, err)
	}
	af, err = flick.Parse("mail.x", mailONC, "auto")
	if err != nil || af.IDL != "oncrpc" {
		t.Errorf("x auto = %v, %v", af, err)
	}
	if _, err := flick.Parse("m.idl", mailCorba, "klingon"); err == nil {
		t.Error("unknown IDL accepted")
	}
}

func TestCompileMatrix(t *testing.T) {
	// Every (IDL, lang, format, style) combination we ship must compile
	// the Mail interface.
	for _, idl := range []struct{ name, file, src string }{
		{"corba", "m.idl", mailCorba},
		{"oncrpc", "m.x", mailONC},
	} {
		for _, lang := range []string{"go", "c"} {
			for _, format := range []string{"xdr", "cdr", "cdr-le", "mach3", "fluke"} {
				for _, style := range []string{"flick", "rpcgen", "powerrpc"} {
					opts := flick.Options{
						IDL: idl.name, Lang: lang, Format: format, Style: style,
						Package: "m", EmitRPC: lang == "go",
					}
					out, err := flick.Compile(idl.file, idl.src, opts)
					if err != nil {
						t.Errorf("%s/%s/%s/%s: %v", idl.name, lang, format, style, err)
						continue
					}
					if len(out) < 200 {
						t.Errorf("%s/%s/%s/%s: suspiciously small output (%d bytes)",
							idl.name, lang, format, style, len(out))
					}
				}
			}
		}
	}
}

func TestCompileMIG(t *testing.T) {
	out, err := flick.Compile("bench.defs", `
		subsystem bench 2400;
		routine send_ints(port : mach_port_t; v : array[] of int32_t);
	`, flick.Options{Format: "mach3", Package: "migstubs", EmitRPC: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"package migstubs",
		"MarshalBenchSendIntsRequest",
		"c.Prog = 2400",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("MIG output missing %q", frag)
		}
	}
}

func TestCompileAblationToggles(t *testing.T) {
	full, err := flick.Compile("m.idl", mailCorba, flick.Options{Package: "p"})
	if err != nil {
		t.Fatal(err)
	}
	noMemcpy, err := flick.Compile("m.idl", mailCorba, flick.Options{
		Package: "p", DisableMemcpy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full == noMemcpy {
		t.Error("disabling memcpy changed nothing")
	}
	if !strings.Contains(full, "e.PutString(msg)") {
		t.Error("full output lacks bulk string copy")
	}
	if strings.Contains(noMemcpy, "e.PutString(msg)") {
		t.Error("no-memcpy output still bulk-copies")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := flick.Compile("m.idl", "interface {", flick.Options{}); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := flick.Compile("m.idl", mailCorba, flick.Options{Format: "morse"}); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := flick.Compile("m.idl", mailCorba, flick.Options{Lang: "cobol"}); err == nil {
		t.Error("unknown language accepted")
	}
}

// TestGoOnlyOptionsRefusedForC: an option only the Go back end implements
// is an error with any other target, never silently dropped.
func TestGoOnlyOptionsRefusedForC(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  flick.Options
		want string
	}{
		{"zerocopy", flick.Options{ZeroCopy: true}, "-zerocopy"},
		{"surfaces", flick.Options{Surfaces: "async"}, "-surfaces "},
		{"surfaces sync", flick.Options{Surfaces: "sync"}, "-surfaces "},
		{"surfaces-only", flick.Options{SurfacesOnly: true}, "-surfaces-only"},
		{"surfaces and surfaces-only", flick.Options{Surfaces: "sync,ctx", SurfacesOnly: true}, "-surfaces "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, in := range []struct{ file, src string }{{"m.idl", mailCorba}, {"m.x", mailONC}} {
				opt := tc.opt
				opt.Lang = "c"
				_, err := flick.Compile(in.file, in.src, opt)
				if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "use -lang go") {
					t.Errorf("%s -lang c: err = %v, want a refusal naming %q", in.file, err, tc.want)
				}
				// The same options are the Go back end's to accept.
				opt.Lang, opt.EmitRPC = "go", true
				if _, err := flick.Compile(in.file, in.src, opt); err != nil {
					t.Errorf("%s -lang go: %v", in.file, err)
				}
			}
		})
	}
}

// TestServerSideRefusedForGo: -side server only changes the C
// presentation; the Go back end emits both halves under -side client, so
// it refuses the option rather than ignoring it, for every front end.
func TestServerSideRefusedForGo(t *testing.T) {
	for _, in := range []struct{ file, src string }{{"m.idl", mailCorba}, {"m.x", mailONC}, {"m.defs", `
		subsystem m 2400;
		routine ping(port : mach_port_t; v : int32_t);
	`}} {
		_, err := flick.Compile(in.file, in.src, flick.Options{Lang: "go", Side: "server", EmitRPC: true})
		if err == nil || !strings.Contains(err.Error(), "-side server") || !strings.Contains(err.Error(), "use -lang c") {
			t.Errorf("%s -lang go -side server: err = %v, want a refusal", in.file, err)
		}
		if _, err := flick.Compile(in.file, in.src, flick.Options{Lang: "go", Side: "client", EmitRPC: true}); err != nil {
			t.Errorf("%s -lang go -side client: %v", in.file, err)
		}
	}
	if _, err := flick.Compile("m.idl", mailCorba, flick.Options{Lang: "c", Side: "server"}); err != nil {
		t.Errorf("-lang c -side server: %v", err)
	}
}

func TestGeneratedGoCompilesUnderGofmtAssumptions(t *testing.T) {
	// Generated Go must at least be balanced and contain the DO NOT
	// EDIT marker; real compilation is covered by the committed
	// teststubs package.
	out, err := flick.Compile("m.idl", mailCorba, flick.Options{Package: "p", EmitRPC: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DO NOT EDIT") {
		t.Error("missing generated-code marker")
	}
	if strings.Count(out, "{") != strings.Count(out, "}") {
		t.Error("unbalanced braces in generated code")
	}
}

func TestCompileAttributesAndInheritance(t *testing.T) {
	// CORBA attributes expand into _get_/_set_ operations; inherited
	// operations keep their discriminator order — both must survive the
	// full pipeline into generated client/server code.
	out, err := flick.Compile("acct.idl", `
		interface Base {
			readonly attribute long version;
			void ping();
		};
		interface Account : Base {
			attribute string owner;
			void close();
		};
	`, flick.Options{Format: "cdr-le", Package: "acct", EmitRPC: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		// Inherited op plus own ops plus expanded attribute accessors.
		"func (c *AccountClient) Ping()",
		"func (c *AccountClient) Close()",
		"func (c *AccountClient) GetOwner() (ret string, err error)",
		"func (c *AccountClient) SetOwner(value string) (err error)",
		"GetVersion() (ret int32, err error)",
		// GIOP name demux must distinguish "_get_owner"/"_set_owner"
		// by their differing words.
		`case 0x5f676574: // "_get"`,
		`case 0x5f736574: // "_set"`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q", frag)
		}
	}
}

func TestCompileInOutParams(t *testing.T) {
	out, err := flick.Compile("io.idl", `
		interface Counter {
			void bump(inout long value, out long previous);
		};
	`, flick.Options{Format: "xdr", Package: "ctr", EmitRPC: true})
	if err != nil {
		t.Fatal(err)
	}
	// inout appears in both the request and the reply.
	for _, frag := range []string{
		"func MarshalCounterBumpRequest(e *rt.Encoder, value int32)",
		"func UnmarshalCounterBumpReply(d *rt.Decoder) (value int32, previous int32, err error)",
		"Bump(value int32) (valueOut int32, previous int32, err error)",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("inout output missing %q\n", frag)
		}
	}
}

func TestMIGRejectsCTarget(t *testing.T) {
	_, err := flick.Compile("s.defs", `
		subsystem s 1;
		routine f(port : mach_port_t; x : int);
	`, flick.Options{Lang: "c", Format: "mach3"})
	if err == nil || !strings.Contains(err.Error(), "MIG front end") {
		t.Errorf("err = %v", err)
	}
}
