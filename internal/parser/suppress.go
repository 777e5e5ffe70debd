package parser

import (
	"strings"

	"bitc/internal/ast"
	"bitc/internal/source"
)

// CommentSuppressions collects the `; bitc:ignore BITC-XXXX [BITC-YYYY ...]`
// directives of a whole file. A directive on a line with code mutes
// findings on that line; a standalone comment line mutes findings on the
// line below it. The scan is textual (the lexer discards comments), so a
// literal "; bitc:ignore" inside a string would also register — harmless,
// since it only ever mutes lints. It walks the text a line at a time and
// allocates only for the directives it finds.
func CommentSuppressions(f *source.File) []ast.Suppression {
	var out []ast.Suppression
	text := f.Text
	for i, start := 0, 0; start <= len(text); i++ {
		end := strings.IndexByte(text[start:], '\n')
		if end < 0 {
			end = len(text)
		} else {
			end += start
		}
		line := text[start:end]
		start = end + 1
		ci := strings.IndexByte(line, ';')
		if ci < 0 {
			continue
		}
		di := strings.Index(line[ci:], "bitc:ignore")
		if di < 0 {
			continue
		}
		target := i + 1 // 1-based: the directive's own line
		if strings.TrimSpace(line[:ci]) == "" {
			target = i + 2 // standalone comment: applies to the next line
		}
		rest := line[ci+di+len("bitc:ignore"):]
		for _, code := range strings.FieldsFunc(rest, func(r rune) bool {
			return r == ' ' || r == '\t' || r == ','
		}) {
			if !strings.HasPrefix(code, "BITC-") {
				break // end of the code list (trailing prose)
			}
			out = append(out, ast.Suppression{Code: code, Line: target})
		}
	}
	return out
}
