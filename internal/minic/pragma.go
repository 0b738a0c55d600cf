package minic

import (
	"fmt"
	"strings"
)

// parsePragmaStmt dispatches on the pragma payload of the current PRAGMA
// token and parses the statement the pragma applies to.
func (p *parser) parsePragmaStmt() (Stmt, error) {
	tok := p.next() // PRAGMA
	head, rest := cutField(tok.Text)
	if head == "" {
		return nil, &ParseError{Pos: tok.Pos, Msg: "empty #pragma"}
	}
	switch head {
	case "unroll":
		factor := 0
		if args := strings.Fields(rest); len(args) > 0 {
			n, err := p.pragmaConstInt(strings.Join(args, " "), tok.Pos)
			if err != nil {
				return nil, err
			}
			factor = n
		}
		if factor <= 0 {
			return nil, &ParseError{Pos: tok.Pos, Msg: "#pragma unroll requires a positive factor"}
		}
		if !p.at(KwFor) {
			return nil, &ParseError{Pos: tok.Pos, Msg: "#pragma unroll must precede a for loop"}
		}
		return p.parseFor(factor)
	case "omp":
		return p.parseOMPPragma(tok, rest)
	default:
		return nil, &ParseError{Pos: tok.Pos, Msg: "unsupported #pragma " + head}
	}
}

func (p *parser) parseOMPPragma(tok Token, rest string) (Stmt, error) {
	construct, _ := cutField(rest)
	if construct == "" {
		return nil, &ParseError{Pos: tok.Pos, Msg: "bare #pragma omp"}
	}
	switch construct {
	case "critical":
		body, err := p.parseStmtAsBlock()
		if err != nil {
			return nil, err
		}
		return &CriticalStmt{Body: body, Pos: tok.Pos}, nil
	case "barrier":
		return &BarrierStmt{Pos: tok.Pos}, nil
	case "target":
		rest := strings.TrimSpace(strings.TrimPrefix(tok.Text, "omp"))
		rest = strings.TrimSpace(strings.TrimPrefix(rest, "target"))
		if !strings.HasPrefix(rest, "parallel") {
			return nil, &ParseError{Pos: tok.Pos, Msg: "only 'omp target parallel' offload regions are supported"}
		}
		rest = strings.TrimSpace(strings.TrimPrefix(rest, "parallel"))
		ts := &TargetStmt{Pos: tok.Pos}
		if err := p.parseTargetClauses(ts, rest, tok.Pos); err != nil {
			return nil, err
		}
		body, err := p.parseStmtAsBlock()
		if err != nil {
			return nil, err
		}
		ts.Body = body
		return ts, nil
	default:
		return nil, &ParseError{Pos: tok.Pos, Msg: "unsupported #pragma omp " + construct}
	}
}

// parseTargetClauses parses the clause list of a target pragma:
// map(to: A[0:N], B[0:N]) map(from: C[0:N]) num_threads(8).
func (p *parser) parseTargetClauses(ts *TargetStmt, text string, pos Pos) error {
	s := newClauseScanner(text)
	for {
		name, ok := s.ident()
		if !ok {
			if s.done() {
				return nil
			}
			return &ParseError{Pos: pos, Msg: "malformed clause list: " + s.rest()}
		}
		arg, err := s.parenArg()
		if err != nil {
			return &ParseError{Pos: pos, Msg: err.Error()}
		}
		switch name {
		case "map":
			if err := p.parseMapClause(ts, arg, pos); err != nil {
				return err
			}
		case "num_threads":
			n, err := p.pragmaConstInt(arg, pos)
			if err != nil {
				return err
			}
			if n <= 0 {
				return &ParseError{Pos: pos, Msg: "num_threads must be positive"}
			}
			ts.NumThreads = n
		default:
			return &ParseError{Pos: pos, Msg: "unsupported target clause " + name}
		}
	}
}

// parseMapClause parses "to: A[0:N], B[0:N]" or "tofrom: x" etc.
func (p *parser) parseMapClause(ts *TargetStmt, arg string, pos Pos) error {
	colon := strings.Index(arg, ":")
	if colon < 0 {
		return &ParseError{Pos: pos, Msg: "map clause needs a direction: " + arg}
	}
	var dir MapDir
	switch strings.TrimSpace(arg[:colon]) {
	case "to":
		dir = MapTo
	case "from":
		dir = MapFrom
	case "tofrom":
		dir = MapToFrom
	default:
		return &ParseError{Pos: pos, Msg: "unknown map direction " + arg[:colon]}
	}
	for items, more := arg[colon+1:], true; more; {
		var item string
		item, items, more = cutTopLevel(items, ',')
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		mc := MapClause{Dir: dir, Pos: pos}
		if lb := strings.Index(item, "["); lb >= 0 {
			mc.Name = strings.TrimSpace(item[:lb])
			inner := strings.TrimSuffix(strings.TrimSpace(item[lb:]), "]")
			inner = strings.TrimPrefix(inner, "[")
			lowText, lenText, ok := cutTopLevel(inner, ':')
			if _, _, extra := cutTopLevel(lenText, ':'); !ok || extra {
				return &ParseError{Pos: pos, Msg: "array section must be [low:len]: " + item}
			}
			low, err := p.pragmaExpr(lowText, pos)
			if err != nil {
				return err
			}
			length, err := p.pragmaExpr(lenText, pos)
			if err != nil {
				return err
			}
			mc.Low, mc.Len = low, length
		} else {
			mc.Name = item
		}
		ts.Maps = append(ts.Maps, mc)
	}
	return nil
}

// pragmaExpr parses an expression embedded in a pragma (e.g. DIM*DIM) with
// the translation unit's defines in scope.
func (p *parser) pragmaExpr(text string, pos Pos) (Expr, error) {
	toks, _, err := p.a.lexer.lex(p.a.toks[:0], text, p.defines)
	if err != nil {
		return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("in pragma expression %q: %v", text, err)}
	}
	// Parse the pragma's tokens as a fresh parser would, then resume.
	p.a.toks = toks
	outer, at, depth := p.toks, p.pos, p.depth
	p.toks, p.pos, p.depth = toks, 0, 0
	e, err := p.parseExpr()
	trailing := err == nil && !p.at(EOF)
	p.toks, p.pos, p.depth = outer, at, depth
	if err != nil {
		return nil, err
	}
	if trailing {
		return nil, &ParseError{Pos: pos, Msg: "trailing tokens in pragma expression: " + text}
	}
	return e, nil
}

// pragmaConstInt parses a compile-time integer in a pragma.
func (p *parser) pragmaConstInt(text string, pos Pos) (int, error) {
	e, err := p.pragmaExpr(strings.TrimSpace(text), pos)
	if err != nil {
		return 0, err
	}
	v, ok := FoldInt(e, nil)
	if !ok {
		return 0, &ParseError{Pos: pos, Msg: "pragma argument is not a constant: " + text}
	}
	return int(v), nil
}

// cutTopLevel slices s around its first sep outside parentheses and
// brackets; found is false, and before all of s, when it has none.
func cutTopLevel(s string, sep byte) (before, after string, found bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				return s[:i], s[i+1:], true
			}
		}
	}
	return s, "", false
}

// clauseScanner scans "name(arg) name(arg) ..." clause lists.
type clauseScanner struct {
	s   string
	pos int
}

func newClauseScanner(s string) *clauseScanner { return &clauseScanner{s: s} }

func (c *clauseScanner) skipSpace() {
	for c.pos < len(c.s) && (c.s[c.pos] == ' ' || c.s[c.pos] == '\t') {
		c.pos++
	}
}

func (c *clauseScanner) done() bool {
	c.skipSpace()
	return c.pos >= len(c.s)
}

func (c *clauseScanner) rest() string { return c.s[c.pos:] }

func (c *clauseScanner) ident() (string, bool) {
	c.skipSpace()
	start := c.pos
	for c.pos < len(c.s) {
		ch := c.s[c.pos]
		if ch == '_' || (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9') {
			c.pos++
		} else {
			break
		}
	}
	if c.pos == start {
		return "", false
	}
	return c.s[start:c.pos], true
}

func (c *clauseScanner) parenArg() (string, error) {
	c.skipSpace()
	if c.pos >= len(c.s) || c.s[c.pos] != '(' {
		return "", fmt.Errorf("expected '(' after clause name near %q", c.rest())
	}
	depth := 0
	start := c.pos + 1
	for ; c.pos < len(c.s); c.pos++ {
		switch c.s[c.pos] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				arg := c.s[start:c.pos]
				c.pos++
				return strings.TrimSpace(arg), nil
			}
		}
	}
	return "", fmt.Errorf("unbalanced parentheses in clause near %q", c.s[start:])
}
