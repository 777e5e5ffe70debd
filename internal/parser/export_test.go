package parser

import (
	"unsafe"

	"bitc/internal/ast"
	"bitc/internal/lexer"
	"bitc/internal/source"
)

// ParseScratch forms the definitions of text as Parse does and also returns
// the bytes of scratch its reader allocated: every chunk of its node,
// atom-token and child-list slabs.
func ParseScratch(name, text string) (*ast.Program, *source.Diagnostics, int) {
	file := source.NewFile(name, text)
	diags := source.NewDiagnostics(file)
	r := newReader(file, diags, 0, len(text))
	prog := (&former{diags: diags}).program(r, file, len(text))
	return prog, diags, r.nodes.alloc*int(unsafe.Sizeof(sexp{})) +
		r.atoms.alloc*int(unsafe.Sizeof(lexer.Token{})) +
		r.kids.alloc*int(unsafe.Sizeof((*sexp)(nil)))
}
