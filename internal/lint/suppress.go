package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// suppression is one `//lint:<key> <reason>` annotation in source. An
// annotation silences findings with the same key on its own line or the
// line directly below (the usual "comment above the statement" position).
type suppression struct {
	file   string
	line   int
	key    string
	reason string
	used   bool
}

// suppressionSet indexes a package's annotations by file and line.
type suppressionSet struct {
	byLine map[string]map[int]*suppression
	order  []*suppression
}

const suppressionPrefix = "//lint:"

// collectSuppressions scans every comment in the package's files.
func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressionSet {
	set := &suppressionSet{byLine: map[string]map[int]*suppression{}}
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, suppressionPrefix)
				if !ok {
					continue
				}
				key, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				sup := &suppression{
					file:   pos.Filename,
					line:   pos.Line,
					key:    strings.TrimSpace(key),
					reason: strings.TrimSpace(reason),
				}
				if set.byLine[sup.file] == nil {
					set.byLine[sup.file] = map[int]*suppression{}
				}
				set.byLine[sup.file][sup.line] = sup
				set.order = append(set.order, sup)
			}
		}
	}
	return set
}

// use marks the annotation covering (file, line, key) as used and reports
// whether one exists. A keyless or mismatched annotation never matches.
func (s *suppressionSet) use(file string, line int, key string) bool {
	lines := s.byLine[file]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		if sup := lines[l]; sup != nil && sup.key == key && sup.reason != "" {
			sup.used = true
			return true
		}
	}
	return false
}

// reset clears every used mark, so the next run audits staleness afresh.
func (s *suppressionSet) reset() {
	for _, sup := range s.order {
		sup.used = false
	}
}

// all returns every annotation in source order.
func (s *suppressionSet) all() []*suppression { return s.order }
