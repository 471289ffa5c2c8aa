// Package slabstubs holds flick-generated stubs for the storage-plan
// corpus (slab.idl): strings and byte sequences decoded into one slab
// per message. Four configurations cover the emission shapes — XDR and
// CDR with every optimization, XDR without memcpy (strings decode in
// place in their slab window), XDR with -zerocopy (byte sequences
// alias the receive arena and leave the plan) — and slab_test.go runs
// the full format x -disable-subset x -zerocopy cross product against
// the interpretive oracle from freshly generated code. Regenerate with
// go generate.
package slabstubs

//go:generate go run flick/cmd/flick -idl corba -lang go -format xdr -style flick -rpc=false -package slabstubs -suffix XDR -o stubs_xdr.go slab.idl
//go:generate go run flick/cmd/flick -idl corba -lang go -format cdr-le -style flick -rpc=false -package slabstubs -suffix CDR -skip-decls -o stubs_cdr.go slab.idl
//go:generate go run flick/cmd/flick -idl corba -lang go -format xdr -style flick -rpc=false -disable memcpy -package slabstubs -suffix NoMemcpy -skip-decls -o stubs_nomemcpy.go slab.idl
//go:generate go run flick/cmd/flick -idl corba -lang go -format xdr -style flick -rpc=false -zerocopy -package slabstubs -suffix ZC -skip-decls -o stubs_zc.go slab.idl
