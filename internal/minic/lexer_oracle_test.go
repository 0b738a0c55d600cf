package minic

// The lexer as it stood before it stopped copying its input: the source
// converted to []rune, token texts copied out of it, the macro table
// cloned per lexer. Kept verbatim (identifiers prefixed old) as the oracle
// TestLexerMatchesOracle holds the string lexer against.

import (
	"fmt"
	"strings"
	"unicode"
)

// oldLexer turns MiniC source text into tokens. It handles line ("//") and
// block ("/* */") comments, object-like "#define NAME value" directives
// (both in-source and injected, as with -D on a C compiler command line),
// and passes "#pragma" lines through as PRAGMA tokens for the parser.
type oldLexer struct {
	src     []rune
	pos     int
	line    int
	col     int
	defines map[string]string
	// expansion guard: names currently being expanded (to reject cycles)
	expanding map[string]bool
	pending   []Token // tokens produced by macro expansion
}

// newOldLexer creates a lexer over src. The defines map acts like -D command
// line definitions; in-source #define directives are added on top and may
// not redefine an existing name to a different value.
func newOldLexer(src string, defines map[string]string) *oldLexer {
	d := make(map[string]string, len(defines))
	for k, v := range defines {
		d[k] = v
	}
	return &oldLexer{
		src:       []rune(src),
		line:      1,
		col:       1,
		defines:   d,
		expanding: make(map[string]bool),
	}
}

// Lex returns the full token stream, ending with an EOF token.
func oldLex(src string, defines map[string]string) ([]Token, error) {
	toks, _, err := oldLexWithDefines(src, defines)
	return toks, err
}

// oldLexWithDefines lexes src and also returns the full macro table after
// in-source #define directives have been processed. The parser needs this
// table to expand macros inside pragma clause expressions, which the lexer
// passes through verbatim.
func oldLexWithDefines(src string, defines map[string]string) ([]Token, map[string]string, error) {
	lx := newOldLexer(src, defines)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, lx.defines, nil
		}
	}
}

func (l *oldLexer) errf(p Pos, format string, args ...any) error {
	return &LexError{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

func (l *oldLexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *oldLexer) peek2() rune {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *oldLexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *oldLexer) here() Pos { return Pos{Line: l.line, Col: l.col} }

// skipSpaceAndComments consumes whitespace and comments. It returns an
// error for unterminated block comments.
func (l *oldLexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			l.advance()
		case r == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peek2() == '*':
			start := l.here()
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// readDirectiveLine reads the rest of a '#' line, honoring backslash-newline
// continuations (the paper's pragmas use them).
func (l *oldLexer) readDirectiveLine() string {
	var b strings.Builder
	for l.pos < len(l.src) {
		r := l.peek()
		if r == '\\' {
			// Possible line continuation.
			save := l.pos
			l.advance()
			for l.pos < len(l.src) && (l.peek() == ' ' || l.peek() == '\t' || l.peek() == '\r') {
				l.advance()
			}
			if l.pos < len(l.src) && l.peek() == '\n' {
				l.advance()
				b.WriteRune(' ')
				continue
			}
			l.pos = save
			b.WriteRune(l.advance())
			continue
		}
		if r == '\n' {
			break
		}
		b.WriteRune(l.advance())
	}
	return strings.TrimSpace(b.String())
}

// Next returns the next token.
func (l *oldLexer) Next() (Token, error) {
	if len(l.pending) > 0 {
		t := l.pending[0]
		l.pending = l.pending[1:]
		return t, nil
	}
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	p := l.here()
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Pos: p}, nil
	}
	r := l.peek()

	switch {
	case r == '#':
		return l.lexDirective(p)
	case unicode.IsLetter(r) || r == '_':
		return l.lexIdent(p)
	case unicode.IsDigit(r) || (r == '.' && unicode.IsDigit(l.peek2())):
		return l.lexNumber(p)
	}
	return l.lexOperator(p)
}

func (l *oldLexer) lexDirective(p Pos) (Token, error) {
	l.advance() // '#'
	line := l.readDirectiveLine()
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Token{}, l.errf(p, "empty preprocessor directive")
	}
	switch fields[0] {
	case "pragma":
		payload := strings.TrimSpace(strings.TrimPrefix(line, "pragma"))
		return Token{Kind: PRAGMA, Text: payload, Pos: p}, nil
	case "define":
		if len(fields) < 2 {
			return Token{}, l.errf(p, "#define needs a name")
		}
		name := fields[1]
		if strings.ContainsAny(name, "()") {
			return Token{}, l.errf(p, "function-like macros are not supported: %s", name)
		}
		value := strings.TrimSpace(strings.TrimPrefix(
			strings.TrimSpace(strings.TrimPrefix(line, "define")), name))
		if old, ok := l.defines[name]; ok && old != value && value != "" {
			// Injected -D definitions win silently, matching common
			// compiler behaviour for command-line overrides.
			return l.Next()
		}
		if value == "" {
			value = "1"
		}
		l.defines[name] = value
		return l.Next()
	default:
		return Token{}, l.errf(p, "unsupported preprocessor directive #%s", fields[0])
	}
}

func (l *oldLexer) lexIdent(p Pos) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r := l.peek()
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			l.advance()
		} else {
			break
		}
	}
	name := string(l.src[start:l.pos])
	if kw, ok := keywords[name]; ok {
		return Token{Kind: kw, Text: name, Pos: p}, nil
	}
	if val, ok := l.defines[name]; ok {
		if err := l.expandMacro(name, val, p); err != nil {
			return Token{}, err
		}
		return l.Next()
	}
	return Token{Kind: IDENT, Text: name, Pos: p}, nil
}

// expandMacro lexes the replacement text of an object-like macro and
// prepends the resulting tokens to the pending queue.
func (l *oldLexer) expandMacro(name, val string, p Pos) error {
	if l.expanding[name] {
		return l.errf(p, "recursive macro expansion of %q", name)
	}
	if len(l.expanding) >= 64 {
		return l.errf(p, "macro expansion nesting exceeds 64 levels at %q", name)
	}
	l.expanding[name] = true
	defer delete(l.expanding, name)
	sub := newOldLexer(val, l.defines)
	sub.expanding = l.expanding
	var toks []Token
	for {
		t, err := sub.Next()
		if err != nil {
			return l.errf(p, "in expansion of %q: %v", name, err)
		}
		if t.Kind == EOF {
			break
		}
		t.Pos = p
		toks = append(toks, t)
	}
	l.pending = append(toks, l.pending...)
	return nil
}

func (l *oldLexer) lexNumber(p Pos) (Token, error) {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
		l.advance()
	}
	if l.pos < len(l.src) && l.peek() == '.' {
		isFloat = true
		l.advance()
		for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
			l.advance()
		}
	}
	if l.pos < len(l.src) && (l.peek() == 'e' || l.peek() == 'E') {
		save := l.pos
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if unicode.IsDigit(l.peek()) {
			isFloat = true
			for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
				l.advance()
			}
		} else {
			l.pos = save
		}
	}
	text := string(l.src[start:l.pos])
	if l.pos < len(l.src) && (l.peek() == 'f' || l.peek() == 'F') {
		l.advance() // float suffix, e.g. 0.5f
		isFloat = true
	}
	if isFloat {
		return Token{Kind: FLOATLIT, Text: text, Pos: p}, nil
	}
	return Token{Kind: INTLIT, Text: text, Pos: p}, nil
}

func (l *oldLexer) lexOperator(p Pos) (Token, error) {
	r := l.advance()
	two := func(next rune, k2, k1 Kind) Token {
		if l.peek() == next {
			l.advance()
			return Token{Kind: k2, Pos: p}
		}
		return Token{Kind: k1, Pos: p}
	}
	switch r {
	case '(':
		return Token{Kind: LParen, Pos: p}, nil
	case ')':
		return Token{Kind: RParen, Pos: p}, nil
	case '{':
		return Token{Kind: LBrace, Pos: p}, nil
	case '}':
		return Token{Kind: RBrace, Pos: p}, nil
	case '[':
		return Token{Kind: LBracket, Pos: p}, nil
	case ']':
		return Token{Kind: RBracket, Pos: p}, nil
	case ',':
		return Token{Kind: Comma, Pos: p}, nil
	case ';':
		return Token{Kind: Semicolon, Pos: p}, nil
	case ':':
		return Token{Kind: Colon, Pos: p}, nil
	case '?':
		return Token{Kind: Question, Pos: p}, nil
	case '+':
		if l.peek() == '+' {
			l.advance()
			return Token{Kind: Inc, Pos: p}, nil
		}
		return two('=', PlusAssign, Plus), nil
	case '-':
		if l.peek() == '-' {
			l.advance()
			return Token{Kind: Dec, Pos: p}, nil
		}
		return two('=', MinusAssign, Minus), nil
	case '*':
		return two('=', StarAssign, Star), nil
	case '/':
		return two('=', SlashAssign, Slash), nil
	case '%':
		return Token{Kind: Percent, Pos: p}, nil
	case '=':
		return two('=', EqEq, Assign), nil
	case '<':
		return two('=', Le, Lt), nil
	case '>':
		return two('=', Ge, Gt), nil
	case '!':
		return two('=', NotEq, Not), nil
	case '&':
		return two('&', AndAnd, Amp), nil
	case '|':
		if l.peek() == '|' {
			l.advance()
			return Token{Kind: OrOr, Pos: p}, nil
		}
		return Token{}, l.errf(p, "bitwise '|' is not supported")
	}
	return Token{}, l.errf(p, "unexpected character %q", r)
}
