// Package minic implements the frontend of the Nymble-like HLS flow: a
// lexer, parser and semantic analyzer for a C subset with OpenMP 4.0
// accelerator pragmas (target parallel, critical) and vendor pragmas
// (unroll), mirroring the input language of the paper's Nymble compiler.
package minic

import (
	"fmt"
	"strconv"
)

// Kind enumerates lexical token kinds.
type Kind int

// Token kinds. Keywords and punctuation cover the C subset used by the
// paper's kernels (Figs. 3, 4, 5 and 10).
const (
	EOF Kind = iota
	IDENT
	INTLIT
	FLOATLIT
	PRAGMA // whole "#pragma ..." line; payload in Text

	// Keywords.
	KwVoid
	KwInt
	KwFloat
	KwFor
	KwIf
	KwElse
	KwReturn
	KwConst

	// Punctuation and operators.
	LParen
	RParen
	LBrace
	RBrace
	LBracket
	RBracket
	Comma
	Semicolon
	Colon
	Question
	Assign
	Plus
	Minus
	Star
	Slash
	Percent
	PlusAssign
	MinusAssign
	StarAssign
	SlashAssign
	Inc
	Dec
	Lt
	Le
	Gt
	Ge
	EqEq
	NotEq
	Not
	AndAnd
	OrOr
	Amp
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "int literal",
	FLOATLIT: "float literal", PRAGMA: "#pragma",
	KwVoid: "void", KwInt: "int", KwFloat: "float", KwFor: "for",
	KwIf: "if", KwElse: "else", KwReturn: "return", KwConst: "const",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBracket: "[", RBracket: "]", Comma: ",", Semicolon: ";",
	Colon: ":", Question: "?", Assign: "=",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	PlusAssign: "+=", MinusAssign: "-=", StarAssign: "*=", SlashAssign: "/=",
	Inc: "++", Dec: "--",
	Lt: "<", Le: "<=", Gt: ">", Ge: ">=", EqEq: "==", NotEq: "!=",
	Not: "!", AndAnd: "&&", OrOr: "||", Amp: "&",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"void": KwVoid, "int": KwInt, "float": KwFloat, "for": KwFor,
	"if": KwIf, "else": KwElse, "return": KwReturn, "const": KwConst,
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return string(p.append(make([]byte, 0, 24))) }

// append appends "line:col" to b.
func (p Pos) append(b []byte) []byte {
	b = strconv.AppendInt(b, int64(p.Line), 10)
	return strconv.AppendInt(append(b, ':'), int64(p.Col), 10)
}

// Token is a single lexical token.
type Token struct {
	Kind Kind
	Text string // raw text: identifier name, literal digits, pragma payload
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	case PRAGMA:
		return fmt.Sprintf("#pragma %q", t.Text)
	default:
		return t.Kind.String()
	}
}
