package minic

import (
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// LexError describes a lexical error with its source position.
type LexError struct {
	Pos Pos
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer turns MiniC source text into tokens. It handles line ("//") and
// block ("/* */") comments, object-like "#define NAME value" directives
// (both in-source and injected, as with -D on a C compiler command line),
// and passes "#pragma" lines through as PRAGMA tokens for the parser.
//
// The lexer reads the source string in place: pos is a byte offset, runes
// are decoded only off the ASCII path, columns count runes, and identifier
// and literal texts are substrings of the source.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
	// defines is the caller's table until the source defines a macro of
	// its own, which clones it first (ownDefines).
	defines    map[string]string
	ownDefines bool
	// expansion guard: names currently being expanded (to reject
	// cycles), innermost last
	expanding []string
	// pending[pendPos:] are the tokens of a macro expansion not yet handed
	// out; the buffer is reused from one expansion to the next.
	pending []Token
	pendPos int
}

// Lex returns the full token stream, ending with an EOF token.
func Lex(src string, defines map[string]string) ([]Token, error) {
	toks, _, err := LexWithDefines(src, defines)
	return toks, err
}

// LexWithDefines lexes src and also returns the full macro table after
// in-source #define directives have been processed. The parser needs this
// table to expand macros inside pragma clause expressions, which the lexer
// passes through verbatim. The defines map acts like -D command line
// definitions and is not written to; in-source #define directives are
// added on top and may not redefine a name to a different value.
func LexWithDefines(src string, defines map[string]string) ([]Token, map[string]string, error) {
	// The densest kernel in the tree has one token per 3.5 source bytes.
	return new(Lexer).lex(make([]Token, 0, len(src)/3+16), src, defines)
}

// lex restarts l on src, keeping its buffers, and appends the tokens
// to toks.
func (l *Lexer) lex(toks []Token, src string, defines map[string]string) ([]Token, map[string]string, error) {
	if l.expanding == nil {
		l.expanding = make([]string, 0, 8) // shared by nested expansions
	}
	*l = Lexer{src: src, line: 1, col: 1, defines: defines, expanding: l.expanding[:0], pending: l.pending[:0]}
	for {
		t, err := l.Next()
		if err != nil {
			return nil, nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, l.defines, nil
		}
	}
}

func (l *Lexer) errf(p Pos, format string, args ...any) error {
	return &LexError{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

// runeAt decodes the rune at byte offset i (0, width 0 at the end). An
// invalid byte reads as U+FFFD, one column wide, as it would after a
// conversion of the source to []rune.
func (l *Lexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return 0, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *Lexer) peek() rune {
	r, _ := l.runeAt(l.pos)
	return r
}

func (l *Lexer) peek2() rune {
	_, w := l.runeAt(l.pos)
	r, _ := l.runeAt(l.pos + w)
	return r
}

func (l *Lexer) advance() rune {
	r, w := l.runeAt(l.pos)
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) here() Pos { return Pos{Line: l.line, Col: l.col} }

// skipSpaceAndComments consumes whitespace and comments. It returns an
// error for unterminated block comments.
func (l *Lexer) skipSpaceAndComments() error {
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
func (l *Lexer) readDirectiveLine() string {
	// A line without a continuation (or an invalid byte, which reads as
	// U+FFFD) is a slice of the source.
	start, end := l.pos, l.pos
	for end < len(l.src) && l.src[end] != '\\' && l.src[end] != '\n' {
		end++
	}
	if line := l.src[start:end]; (end == len(l.src) || l.src[end] == '\n') && utf8.ValidString(line) {
		for l.pos < end {
			l.advance()
		}
		return strings.TrimSpace(line)
	}
	var b strings.Builder
	b.Grow(2 * (end - start))
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
func (l *Lexer) Next() (Token, error) {
	if l.pendPos < len(l.pending) {
		t := l.pending[l.pendPos]
		l.pendPos++
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

func (l *Lexer) lexDirective(p Pos) (Token, error) {
	l.advance() // '#'
	line := l.readDirectiveLine()
	directive, rest := cutField(line)
	if directive == "" {
		return Token{}, l.errf(p, "empty preprocessor directive")
	}
	switch directive {
	case "pragma":
		payload := strings.TrimSpace(strings.TrimPrefix(line, "pragma"))
		return Token{Kind: PRAGMA, Text: payload, Pos: p}, nil
	case "define":
		name, _ := cutField(rest)
		if name == "" {
			return Token{}, l.errf(p, "#define needs a name")
		}
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
		if !l.ownDefines {
			d := make(map[string]string, len(l.defines)+1)
			for k, v := range l.defines {
				d[k] = v
			}
			l.defines, l.ownDefines = d, true
		}
		l.defines[name] = value
		return l.Next()
	default:
		return Token{}, l.errf(p, "unsupported preprocessor directive #%s", directive)
	}
}

// cutField splits off the first field of s as strings.Fields splits
// them, returning it and the text after it; field is "" when s is blank.
func cutField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

func (l *Lexer) lexIdent(p Pos) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r := l.peek()
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			l.advance()
		} else {
			break
		}
	}
	name := l.src[start:l.pos]
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

// expandMacro lexes the replacement text of an object-like macro into the
// pending queue. The queue is empty here: Next drains it before it reads
// source text, and only source text reaches lexIdent.
func (l *Lexer) expandMacro(name, val string, p Pos) error {
	if slices.Contains(l.expanding, name) {
		return l.errf(p, "recursive macro expansion of %q", name)
	}
	if len(l.expanding) >= 64 {
		return l.errf(p, "macro expansion nesting exceeds 64 levels at %q", name)
	}
	sub := Lexer{src: val, line: 1, col: 1, defines: l.defines, expanding: append(l.expanding, name)}
	l.pending, l.pendPos = l.pending[:0], 0
	for {
		t, err := sub.Next()
		if err != nil {
			return l.errf(p, "in expansion of %q: %v", name, err)
		}
		if t.Kind == EOF {
			return nil
		}
		t.Pos = p
		l.pending = append(l.pending, t)
	}
}

func (l *Lexer) lexNumber(p Pos) (Token, error) {
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
	text := l.src[start:l.pos]
	if l.pos < len(l.src) && (l.peek() == 'f' || l.peek() == 'F') {
		l.advance() // float suffix, e.g. 0.5f
		isFloat = true
	}
	if isFloat {
		return Token{Kind: FLOATLIT, Text: text, Pos: p}, nil
	}
	return Token{Kind: INTLIT, Text: text, Pos: p}, nil
}

func (l *Lexer) lexOperator(p Pos) (Token, error) {
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
