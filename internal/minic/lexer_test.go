package minic

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"paravis/internal/workloads"
)

func lexAll(t *testing.T, src string, defines map[string]string) []Token {
	t.Helper()
	toks, _, err := LexWithDefines(src, defines)
	if err != nil {
		t.Fatalf("LexWithDefines(%q): %v", src, err)
	}
	return toks
}

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicTokens(t *testing.T) {
	toks := lexAll(t, "int x = 42;", nil)
	want := []Kind{KwInt, IDENT, Assign, INTLIT, Semicolon, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
	if toks[1].Text != "x" || toks[3].Text != "42" {
		t.Errorf("unexpected token texts: %v", toks)
	}
}

func TestLexOperators(t *testing.T) {
	cases := map[string]Kind{
		"+": Plus, "-": Minus, "*": Star, "/": Slash, "%": Percent,
		"+=": PlusAssign, "-=": MinusAssign, "*=": StarAssign, "/=": SlashAssign,
		"++": Inc, "--": Dec, "<": Lt, "<=": Le, ">": Gt, ">=": Ge,
		"==": EqEq, "!=": NotEq, "!": Not, "&&": AndAnd, "||": OrOr, "&": Amp,
		"?": Question, ":": Colon,
	}
	for src, want := range cases {
		toks := lexAll(t, src, nil)
		if toks[0].Kind != want {
			t.Errorf("lex %q: got %s, want %s", src, toks[0].Kind, want)
		}
	}
}

func TestLexFloatLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"0.5f", "0.5"},
		{"4.0f", "4.0"},
		{"1.0", "1.0"},
		{"2e3", "2e3"},
		{"1.5e-2", "1.5e-2"},
	}
	for _, c := range cases {
		toks := lexAll(t, c.src, nil)
		if toks[0].Kind != FLOATLIT {
			t.Errorf("lex %q: got kind %s, want FLOATLIT", c.src, toks[0].Kind)
			continue
		}
		if toks[0].Text != c.want {
			t.Errorf("lex %q: got text %q, want %q", c.src, toks[0].Text, c.want)
		}
	}
	// Plain integers must stay integers.
	toks := lexAll(t, "17", nil)
	if toks[0].Kind != INTLIT {
		t.Errorf("lex 17: got %s, want INTLIT", toks[0].Kind)
	}
}

func TestLexComments(t *testing.T) {
	src := `
// a line comment
int /* inline */ x; /* multi
line */ float y;
`
	toks := lexAll(t, src, nil)
	want := []Kind{KwInt, IDENT, Semicolon, KwFloat, IDENT, Semicolon, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s want %s", i, got[i], want[i])
		}
	}
}

func TestLexUnterminatedBlockComment(t *testing.T) {
	if _, _, err := LexWithDefines("int x; /* oops", nil); err == nil {
		t.Fatal("expected error for unterminated block comment")
	}
}

func TestLexDefineExpansion(t *testing.T) {
	src := "#define DIM 64\nint x = DIM;"
	toks := lexAll(t, src, nil)
	if toks[3].Kind != INTLIT || toks[3].Text != "64" {
		t.Fatalf("macro not expanded: %v", toks)
	}
}

func TestLexInjectedDefines(t *testing.T) {
	toks := lexAll(t, "int x = SIZE;", map[string]string{"SIZE": "128"})
	if toks[3].Kind != INTLIT || toks[3].Text != "128" {
		t.Fatalf("injected define not expanded: %v", toks)
	}
}

func TestLexDefineToKeyword(t *testing.T) {
	// The paper's kernels use `#define DTYPE float`.
	toks := lexAll(t, "#define DTYPE float\nDTYPE x;", nil)
	if toks[0].Kind != KwFloat {
		t.Fatalf("DTYPE should expand to float keyword, got %v", toks[0])
	}
}

func TestLexDefineExpression(t *testing.T) {
	toks := lexAll(t, "#define N (4*2)\nint x = N;", nil)
	got := kinds(toks)
	want := []Kind{KwInt, IDENT, Assign, LParen, INTLIT, Star, INTLIT, RParen, Semicolon, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s want %s", i, got[i], want[i])
		}
	}
}

func TestLexRecursiveMacro(t *testing.T) {
	if _, _, err := LexWithDefines("#define A B\n#define B A\nint x = A;", nil); err == nil {
		t.Fatal("expected recursive macro error")
	}
}

func TestLexPragmaLine(t *testing.T) {
	toks := lexAll(t, "#pragma omp critical\nint x;", nil)
	if toks[0].Kind != PRAGMA || toks[0].Text != "omp critical" {
		t.Fatalf("got %v", toks[0])
	}
}

func TestLexPragmaLineContinuation(t *testing.T) {
	src := "#pragma omp target parallel map(from:C[0:4])\\\n  map(to:A[0:4]) num_threads(8)\nint x;"
	toks := lexAll(t, src, nil)
	if toks[0].Kind != PRAGMA {
		t.Fatalf("got %v", toks[0])
	}
	if !strings.Contains(toks[0].Text, "map(to:A[0:4])") {
		t.Fatalf("continuation not joined: %q", toks[0].Text)
	}
	if toks[1].Kind != KwInt {
		t.Fatalf("token after pragma: %v", toks[1])
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexAll(t, "int\n  x;", nil)
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("int at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("x at %v, want 2:3", toks[1].Pos)
	}
}

func TestLexErrorsOnUnsupportedChars(t *testing.T) {
	for _, src := range []string{"@", "$", "int x = a | b;", "#include <x>"} {
		if _, _, err := LexWithDefines(src, nil); err == nil {
			t.Errorf("LexWithDefines(%q) should fail", src)
		}
	}
}

// TestLexIdentifierRoundTrip property: any valid identifier-shaped string
// lexes to a single IDENT token with identical text (unless it collides
// with a keyword).
func TestLexIdentifierRoundTrip(t *testing.T) {
	letters := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
	digits := "0123456789"
	f := func(seed uint64, length uint8) bool {
		n := int(length%24) + 1
		name := make([]byte, n)
		s := seed
		for i := range name {
			s = s*6364136223846793005 + 1442695040888963407
			if i == 0 {
				name[i] = letters[int(s>>33)%len(letters)]
			} else {
				all := letters + digits
				name[i] = all[int(s>>33)%len(all)]
			}
		}
		text := string(name)
		if _, isKw := keywords[text]; isKw {
			return true
		}
		toks, _, err := LexWithDefines(text, nil)
		if err != nil || len(toks) != 2 {
			return false
		}
		return toks[0].Kind == IDENT && toks[0].Text == text && toks[1].Kind == EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLexIntRoundTrip property: any non-negative int literal round-trips.
func TestLexIntRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		text := uintToString(uint64(v))
		toks, _, err := LexWithDefines(text, nil)
		if err != nil || len(toks) != 2 {
			return false
		}
		return toks[0].Kind == INTLIT && toks[0].Text == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func uintToString(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// sameAsOracle lexes src with the string lexer and with the []rune lexer it
// replaced and demands the same tokens (kind, text, position), the same
// macro table and the same error.
func sameAsOracle(t *testing.T, name, src string, defines map[string]string) {
	t.Helper()
	before := maps.Clone(defines)
	got, gotDefs, gotErr := LexWithDefines(src, defines)
	want, wantDefs, wantErr := oldLexWithDefines(src, defines)
	if !maps.Equal(defines, before) {
		t.Errorf("%s: the caller's defines were written to", name)
	}
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Errorf("%s: error %v, oracle %v", name, gotErr, wantErr)
		return
	}
	if gotErr != nil {
		var le, oe *LexError
		if !errors.As(gotErr, &le) || !errors.As(wantErr, &oe) || le.Pos != oe.Pos {
			t.Errorf("%s: error position %v, oracle %v", name, gotErr, wantErr)
		}
		return
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: token streams differ:\n got %v\nwant %v", name, got, want)
	}
	if !maps.Equal(gotDefs, wantDefs) {
		t.Errorf("%s: macro table %v, oracle %v", name, gotDefs, wantDefs)
	}
}

// TestLexerMatchesOracle runs every kernel in the tree through both
// lexers: the example and benchmark kernels, the analysis fixtures and the
// seed workloads under their defines.
func TestLexerMatchesOracle(t *testing.T) {
	n := 0
	for _, pat := range []string{
		"../../examples/*/*.mc", "../../benchmark/testdata/*.mc",
		"../staticcheck/testdata/*.mc", "../absint/testdata/*.mc",
	} {
		files, err := filepath.Glob(pat)
		if err != nil || len(files) == 0 {
			t.Fatalf("glob %s: %v (%d files)", pat, err, len(files))
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sameAsOracle(t, f, string(src), nil)
			sameAsOracle(t, f+" -D", string(src), map[string]string{"NT": "2", "VECTOR_LEN": "8", "DTYPE": "float"})
			n++
		}
	}
	for _, u := range workloads.Units() {
		sameAsOracle(t, u.Name, u.Source, u.Defines)
		n++
	}
	if n < 30 {
		t.Errorf("only %d sources compared", n)
	}
}

// lexCorners are the inputs the two lexers could plausibly read
// differently: bytes outside ASCII (columns count runes, an invalid byte
// is one column of U+FFFD), macros that fail while nested in other macros,
// and directives with stray backslashes.
var lexCorners = []string{
	"int x; // größe — naïve\nint y;",
	"/* 行列 × ベクトル */ int x = 1; /* π */ float π2 = 2.0f;",
	"int größe = 3; @",
	"int x; /* 未終了",
	"// résumé\n  /* ü */ $",
	"int x = 1; // \xff\xfe broken utf-8\n#",
	"float a\xc3 = 1;",
	"int \xe2\x82 = 1;",
	"x\x00y 12\x00",
	"#define A B\n#define B C\n#define C A\nint x = A;",
	"#define A (B + B)\n#define B (C * 2)\n#define C 7\nint x = A;",
	"#define A B\n#define B 1 @ 2\nint x = A;",
	"#define A B\n#define B 1 /* open\nint x = A;",
	"#define A | 1\nint é = A;",
	"#define A #define B 2\nint x = A B;",
	"#define A #bogus\nint x = A;",
	"#define A\n#define A 3\n#define A 4\nint x = A;",
	"#define DIM 64\n#define DIM 32\nint x = DIM;",
	"#define F(x) x\n",
	"#define\n",
	"#pragma omp target \\ map(to:A)\nint x;",
	"#pragma unroll 4 \\\r\n  \\\n\nint x;",
	"#pragma é \\",
	"1.5e+ 2e 3.f .5 5. 1e5f 0x10 1..2",
	"a+++b---c<=d>=e==f!=g&&h||i&j|k",
}

func TestLexCornersMatchOracle(t *testing.T) {
	for _, src := range lexCorners {
		sameAsOracle(t, strconv.Quote(src), src, nil)
		sameAsOracle(t, strconv.Quote(src)+" -D", src, map[string]string{"B": "A", "DIM": "16", "x": "größe"})
	}
}

// TestLexNonASCIIPositions pins what the oracle comparison relies on:
// columns count runes, not bytes, in token and in error positions.
func TestLexNonASCIIPositions(t *testing.T) {
	toks := lexAll(t, "/* größe */ x\n// π\n  é1 = 2;", nil)
	if toks[0].Text != "x" || toks[0].Pos != (Pos{Line: 1, Col: 13}) {
		t.Errorf("x after a non-ASCII comment at %v (%q), want 1:13", toks[0].Pos, toks[0].Text)
	}
	if toks[1].Text != "é1" || toks[1].Pos != (Pos{Line: 3, Col: 3}) || toks[2].Pos != (Pos{Line: 3, Col: 6}) {
		t.Errorf("é1 at %v, = at %v, want 3:3 and 3:6", toks[1].Pos, toks[2].Pos)
	}
	for src, want := range map[string]Pos{
		"/* ü */ @":             {Line: 1, Col: 9},
		"// ü\n  é = $;":        {Line: 2, Col: 7},
		"int x; /* ü */ /* 未終了": {Line: 1, Col: 16},
	} {
		_, _, err := LexWithDefines(src, nil)
		var le *LexError
		if !errors.As(err, &le) || le.Pos != want {
			t.Errorf("LexWithDefines(%q): error %v, want a LexError at %v", src, err, want)
		}
	}
}

// TestLexNestedMacroErrors: an error inside a macro's replacement text is
// reported at the use site, wrapped once per expansion level; a cycle
// through several macros is caught wherever it closes.
func TestLexNestedMacroErrors(t *testing.T) {
	for src, want := range map[string]string{
		"#define A B\n#define B C\n#define C A\nint x = A;": `4:9: in expansion of "A": 1:1: in expansion of "B": 1:1: in expansion of "C": 1:1: recursive macro expansion of "A"`,
		"#define A B\n#define B 1 @ 2\n\n  A":               `4:3: in expansion of "A": 1:1: in expansion of "B": 1:3: unexpected character '@'`,
		"#define A A\nint A;":                               `2:5: in expansion of "A": 1:1: recursive macro expansion of "A"`,
	} {
		_, _, err := LexWithDefines(src, nil)
		if err == nil || err.Error() != want {
			t.Errorf("LexWithDefines(%q):\n got %v\nwant %s", src, err, want)
		}
	}
}

// FuzzLexOracle holds the two lexers together on arbitrary input; its seed
// corpus runs with the unit tests.
func FuzzLexOracle(f *testing.F) {
	for _, src := range lexCorners {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sameAsOracle(t, strconv.Quote(src), src, map[string]string{"N": "4", "T": "N N"})
	})
}
