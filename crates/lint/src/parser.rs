//! A recursive-descent *item* parser over the [`crate::lexer`] stream.
//!
//! The container builds offline (no `syn`), so the workspace semantic
//! model is built from this hand-rolled parser instead. It recognizes the
//! item grammar the lint rules need — structs with fields, enums with
//! variants, fns with parameter names / return types / body spans, impl
//! blocks (so methods know their `Self` type), traits, consts, and `use`
//! paths — and deliberately skips everything else (expressions inside
//! bodies stay raw token ranges; [`crate::symbols`] walks those).
//!
//! Like the lexer, it never fails: malformed or exotic syntax degrades
//! into skipped tokens, not a parse abort, because a lint pass that dies
//! on one weird file checks nothing at all.

use crate::lexer::{lex, Tok, TokKind};

/// Lex `src` and drop comment tokens — the token space every rule and the
/// parser index into (body spans are indices into this vector).
pub fn code_toks(src: &str) -> Vec<Tok> {
    lex(src).into_iter().filter(|t| t.kind != TokKind::Comment).collect()
}

/// One field of a struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    pub name: String,
    /// Type text, tokens joined with spaces (`Vec < u64 >`). Used for
    /// contains-checks (`Mutex`, `Cycle`), not re-parsed.
    pub ty: String,
    pub is_pub: bool,
    pub line: u32,
}

/// One variant of an enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantDef {
    pub name: String,
    pub line: u32,
}

/// A parsed `fn` signature plus the token span of its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Binding names of the parameters, receiver (`self`) excluded.
    pub params: Vec<String>,
    /// Declared type text per entry of `params` (same length; tokens
    /// joined with spaces, `& mut Cfg`). Pattern parameters share their
    /// chunk's type text. Feeds the resolver's type binding.
    pub param_tys: Vec<String>,
    /// Return-type text up to any `where` clause (`-> Self`, empty if
    /// none). Used for contains-checks only.
    pub ret: String,
    /// `(open_brace, close_brace)` indices into the code-token vector the
    /// parser ran over; `None` for bodyless trait methods.
    pub body: Option<(usize, usize)>,
}

/// One leaf of a `use` tree: the full path plus the local binding name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    /// Path segments, leading `crate`/`super`/`self` kept verbatim
    /// (`["std", "collections", "HashMap"]`).
    pub path: Vec<String>,
    /// Name the import binds locally: the last segment, or the `as`
    /// rename. Empty for glob imports.
    pub alias: String,
    /// `use path::*` — `path` names the module being flattened in.
    pub glob: bool,
}

/// One parsed item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Struct/enum/fn/trait/mod name; the `Self` type for impls; the
    /// path for `use`.
    pub name: String,
    pub line: u32,
    pub is_pub: bool,
    pub kind: ItemKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    Struct {
        fields: Vec<FieldDef>,
    },
    Enum {
        variants: Vec<VariantDef>,
    },
    Fn(FnDef),
    Impl {
        trait_name: Option<String>,
        items: Vec<Item>,
    },
    Trait {
        items: Vec<Item>,
    },
    Mod {
        is_test: bool,
        items: Vec<Item>,
    },
    /// `const`/`static`; `ty` is the declared type text (space-joined),
    /// so the resolver can recognize `static X: Mutex<…>` lock roots.
    Const {
        ty: String,
    },
    Use {
        imports: Vec<UseImport>,
    },
}

/// Parse the item tree of a comment-stripped token stream (see
/// [`code_toks`]).
pub fn parse_items(code: &[Tok]) -> Vec<Item> {
    Parser { t: code, i: 0 }.items(code.len())
}

struct Parser<'a> {
    t: &'a [Tok],
    i: usize,
}

/// Keywords that look like `ident (` call sites but are not.
const STMT_KEYWORDS: &[&str] = &["if", "while", "match", "for", "return", "in", "let", "else"];

impl<'a> Parser<'a> {
    fn at(&self, j: usize) -> Option<&'a Tok> {
        self.t.get(j)
    }

    /// Index of the bracket matching the opener at `open` (`{`/`(`/`[`),
    /// or the last scanned index if unbalanced.
    fn matching(&self, open: usize) -> usize {
        let (o, c) = match self.t[open].text.as_str() {
            "(" => ('(', ')'),
            "[" => ('[', ']'),
            _ => ('{', '}'),
        };
        let mut depth = 0usize;
        let mut j = open;
        while j < self.t.len() {
            if self.t[j].is_punct(o) {
                depth += 1;
            } else if self.t[j].is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        self.t.len().saturating_sub(1)
    }

    /// Skip an attribute starting at index `j` (`#` or `#!`), returning
    /// the index after `]` and whether it mentions `cfg(… test …)`.
    fn attr_end(&self, j: usize) -> (usize, bool) {
        let mut k = j + 1;
        if self.at(k).is_some_and(|t| t.is_punct('!')) {
            k += 1;
        }
        if !self.at(k).is_some_and(|t| t.is_punct('[')) {
            return (k, false);
        }
        let close = self.matching(k);
        let body = &self.t[k..=close.min(self.t.len() - 1)];
        let cfg_test =
            body.iter().any(|t| t.is_ident("cfg")) && body.iter().any(|t| t.is_ident("test"));
        (close + 1, cfg_test)
    }

    /// If positioned at `<`, skip the balanced generic parameter list
    /// (`->` never closes one; `>>` is two closers).
    fn skip_generics(&mut self) {
        if !self.at(self.i).is_some_and(|t| t.is_punct('<')) {
            return;
        }
        let mut depth = 0i32;
        while self.i < self.t.len() {
            let t = &self.t[self.i];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !(self.i > 0 && self.t[self.i - 1].is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Advance past a `;` at bracket depth 0 (handles `[0u64; 4]` and
    /// initializer blocks).
    fn skip_to_semi(&mut self) {
        let mut depth = 0i32;
        while self.i < self.t.len() {
            let t = &self.t[self.i];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(';') && depth <= 0 {
                self.i += 1;
                return;
            }
            self.i += 1;
        }
    }

    fn ident_text(&mut self) -> String {
        match self.at(self.i) {
            Some(t) if t.kind == TokKind::Ident => {
                self.i += 1;
                t.text.clone()
            }
            _ => String::new(),
        }
    }

    /// Parse items until index `end` (exclusive).
    fn items(&mut self, end: usize) -> Vec<Item> {
        let mut out = Vec::new();
        let mut is_pub = false;
        let mut cfg_test = false;
        while self.i < end.min(self.t.len()) {
            let t = &self.t[self.i];
            let line = t.line;
            if t.is_punct('#') {
                let (next, test) = self.attr_end(self.i);
                cfg_test |= test;
                self.i = next;
            } else if t.is_ident("pub") {
                is_pub = true;
                self.i += 1;
                // pub(crate) / pub(in path)
                if self.at(self.i).is_some_and(|t| t.is_punct('(')) {
                    self.i = self.matching(self.i) + 1;
                }
            } else if t.is_ident("unsafe") || t.is_ident("async") || t.is_ident("default") {
                self.i += 1; // modifier; keep pub/cfg flags
            } else if t.is_ident("struct") || t.is_ident("union") {
                out.push(self.struct_item(is_pub, line));
                (is_pub, cfg_test) = (false, false);
            } else if t.is_ident("enum") {
                out.push(self.enum_item(is_pub, line));
                (is_pub, cfg_test) = (false, false);
            } else if t.is_ident("fn") {
                out.push(self.fn_item(is_pub, line));
                (is_pub, cfg_test) = (false, false);
            } else if t.is_ident("impl") {
                out.push(self.impl_item(line));
                (is_pub, cfg_test) = (false, false);
            } else if t.is_ident("trait") {
                out.push(self.trait_item(is_pub, line));
                (is_pub, cfg_test) = (false, false);
            } else if t.is_ident("mod") {
                out.push(self.mod_item(is_pub, cfg_test, line));
                (is_pub, cfg_test) = (false, false);
            } else if t.is_ident("const") || t.is_ident("static") {
                // `const NAME: Ty = expr;` — but `const fn` is a modifier.
                if self.at(self.i + 1).is_some_and(|n| n.is_ident("fn") || n.is_ident("unsafe")) {
                    self.i += 1;
                    continue;
                }
                self.i += 1;
                let name = self.ident_text();
                // Declared type: between the `:` and the `=` (or `;`).
                let ty_start = if self.at(self.i).is_some_and(|t| t.is_punct(':')) {
                    self.i + 1
                } else {
                    self.i
                };
                let mut ty_end = ty_start;
                while self.at(ty_end).is_some_and(|t| !t.is_punct('=') && !t.is_punct(';')) {
                    ty_end += 1;
                }
                let ty = join(&self.t[ty_start.min(self.t.len())..ty_end.min(self.t.len())]);
                self.skip_to_semi();
                out.push(Item { name, line, is_pub, kind: ItemKind::Const { ty } });
                (is_pub, cfg_test) = (false, false);
            } else if t.is_ident("use") || t.is_ident("type") || t.is_ident("extern") {
                let is_use = t.is_ident("use");
                self.i += 1;
                let start = self.i;
                self.skip_to_semi();
                if is_use {
                    let end = self.i.saturating_sub(1).min(self.t.len());
                    let name: String = self.t[start..end].iter().map(|t| t.text.as_str()).collect();
                    let mut imports = Vec::new();
                    use_tree(&self.t[start..end], &mut Vec::new(), &mut imports);
                    out.push(Item { name, line, is_pub, kind: ItemKind::Use { imports } });
                }
                (is_pub, cfg_test) = (false, false);
            } else if t.is_ident("macro_rules") {
                // `macro_rules! name { … }`
                self.i += 1;
                while self.i < self.t.len() && !self.t[self.i].is_punct('{') {
                    self.i += 1;
                }
                if self.i < self.t.len() {
                    self.i = self.matching(self.i) + 1;
                }
                (is_pub, cfg_test) = (false, false);
            } else if t.is_punct('{') {
                self.i = self.matching(self.i) + 1;
                (is_pub, cfg_test) = (false, false);
            } else {
                self.i += 1;
                (is_pub, cfg_test) = (false, false);
            }
        }
        out
    }

    fn struct_item(&mut self, is_pub: bool, line: u32) -> Item {
        self.i += 1; // struct
        let name = self.ident_text();
        self.skip_generics();
        // Skip a where clause: anything up to `{`, `(`, or `;`.
        while self
            .at(self.i)
            .is_some_and(|t| !t.is_punct('{') && !t.is_punct('(') && !t.is_punct(';'))
        {
            self.i += 1;
        }
        let mut fields = Vec::new();
        match self.at(self.i) {
            Some(t) if t.is_punct('{') => {
                let close = self.matching(self.i);
                fields = self.fields_in(self.i + 1, close);
                self.i = close + 1;
            }
            Some(t) if t.is_punct('(') => {
                // Tuple struct: unnamed fields carry nothing the rules use.
                self.i = self.matching(self.i) + 1;
                self.skip_to_semi();
            }
            _ => self.skip_to_semi(), // unit struct
        }
        Item { name, line, is_pub, kind: ItemKind::Struct { fields } }
    }

    /// `name: Ty` pairs at brace depth 1 of a struct body.
    fn fields_in(&self, start: usize, end: usize) -> Vec<FieldDef> {
        let mut out = Vec::new();
        let mut j = start;
        let mut is_pub = false;
        while j < end {
            let t = &self.t[j];
            if t.is_punct('#') {
                let (next, _) = self.attr_end(j);
                j = next;
            } else if t.is_ident("pub") {
                is_pub = true;
                j += 1;
                if self.at(j).is_some_and(|t| t.is_punct('(')) {
                    j = self.matching(j) + 1;
                }
            } else if t.kind == TokKind::Ident
                && self.at(j + 1).is_some_and(|n| n.is_punct(':'))
                && self.at(j + 2).is_none_or(|n| !n.is_punct(':'))
            {
                let (name, fline) = (t.text.clone(), t.line);
                // Type runs to the next comma at depth 0 (generics,
                // tuples, and fn-pointer types all nest).
                let mut k = j + 2;
                let (mut par, mut ang, mut br) = (0i32, 0i32, 0i32);
                while k < end {
                    let u = &self.t[k];
                    if u.is_punct(',') && par == 0 && ang == 0 && br == 0 {
                        break;
                    }
                    if u.is_punct('(') || u.is_punct('[') {
                        par += 1;
                    } else if u.is_punct(')') || u.is_punct(']') {
                        par -= 1;
                    } else if u.is_punct('<') {
                        ang += 1;
                    } else if u.is_punct('>') && !self.t[k - 1].is_punct('-') {
                        ang -= 1;
                    } else if u.is_punct('{') {
                        br += 1;
                    } else if u.is_punct('}') {
                        br -= 1;
                    }
                    k += 1;
                }
                let ty = join(&self.t[(j + 2).min(k)..k]);
                out.push(FieldDef { name, ty, is_pub, line: fline });
                is_pub = false;
                j = k + 1;
            } else {
                j += 1;
            }
        }
        out
    }

    fn enum_item(&mut self, is_pub: bool, line: u32) -> Item {
        self.i += 1; // enum
        let name = self.ident_text();
        self.skip_generics();
        while self.at(self.i).is_some_and(|t| !t.is_punct('{') && !t.is_punct(';')) {
            self.i += 1;
        }
        let mut variants = Vec::new();
        if self.at(self.i).is_some_and(|t| t.is_punct('{')) {
            let close = self.matching(self.i);
            let mut j = self.i + 1;
            while j < close {
                let t = &self.t[j];
                if t.is_punct('#') {
                    let (next, _) = self.attr_end(j);
                    j = next;
                } else if t.kind == TokKind::Ident {
                    variants.push(VariantDef { name: t.text.clone(), line: t.line });
                    j += 1;
                    // Payload: tuple or struct variant.
                    if self.at(j).is_some_and(|n| n.is_punct('(') || n.is_punct('{')) {
                        j = self.matching(j) + 1;
                    }
                    // Discriminant: `= expr` up to the comma.
                    if self.at(j).is_some_and(|n| n.is_punct('=')) {
                        while j < close && !self.t[j].is_punct(',') {
                            j += 1;
                        }
                    }
                } else {
                    j += 1;
                }
            }
            self.i = close + 1;
        } else {
            self.skip_to_semi();
        }
        Item { name, line, is_pub, kind: ItemKind::Enum { variants } }
    }

    fn fn_item(&mut self, is_pub: bool, line: u32) -> Item {
        self.i += 1; // fn
        let name = self.ident_text();
        self.skip_generics();
        let (mut params, mut param_tys) = (Vec::new(), Vec::new());
        if self.at(self.i).is_some_and(|t| t.is_punct('(')) {
            let close = self.matching(self.i);
            (params, param_tys) = self.params_in(self.i + 1, close);
            self.i = close + 1;
        }
        // Return type (cut at `where`: bounds are not a return type).
        let ret_start = self.i;
        let mut ret_end = self.i;
        while self
            .at(self.i)
            .is_some_and(|t| !t.is_punct('{') && !t.is_punct(';') && !t.is_ident("where"))
        {
            self.i += 1;
            ret_end = self.i;
        }
        while self.at(self.i).is_some_and(|t| !t.is_punct('{') && !t.is_punct(';')) {
            self.i += 1; // where clause
        }
        let ret = join(&self.t[ret_start..ret_end]);
        let body = match self.at(self.i) {
            Some(t) if t.is_punct('{') => {
                let close = self.matching(self.i);
                let span = (self.i, close);
                self.i = close + 1;
                Some(span)
            }
            _ => {
                self.i = (self.i + 1).min(self.t.len()); // the `;`
                None
            }
        };
        Item { name, line, is_pub, kind: ItemKind::Fn(FnDef { params, param_tys, ret, body }) }
    }

    /// Parameter binding names plus their declared type text: idents
    /// before the first `:` of each top-level-comma chunk (skipping
    /// receivers and `mut`/`ref`/`_`), paired with the tokens after that
    /// `:`. Pattern params share their chunk's type.
    fn params_in(&self, start: usize, end: usize) -> (Vec<String>, Vec<String>) {
        let mut out = Vec::new();
        let mut tys = Vec::new();
        let mut chunk: Vec<usize> = Vec::new();
        let (mut par, mut ang, mut br) = (0i32, 0i32, 0i32);
        for j in start..=end {
            let terminal = j == end || (self.t[j].is_punct(',') && par == 0 && ang == 0 && br == 0);
            if terminal {
                if !chunk.iter().any(|&k| self.t[k].is_ident("self")) {
                    let colon = chunk.iter().position(|&k| self.t[k].is_punct(':'));
                    let ty = colon.map_or(String::new(), |c| {
                        chunk[c + 1..]
                            .iter()
                            .map(|&k| self.t[k].text.as_str())
                            .collect::<Vec<_>>()
                            .join(" ")
                    });
                    for &k in &chunk {
                        let t = &self.t[k];
                        if t.is_punct(':') {
                            break;
                        }
                        if t.kind == TokKind::Ident
                            && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                        {
                            out.push(t.text.clone());
                            tys.push(ty.clone());
                        }
                    }
                }
                chunk.clear();
                continue;
            }
            let u = &self.t[j];
            if u.is_punct('(') || u.is_punct('[') {
                par += 1;
            } else if u.is_punct(')') || u.is_punct(']') {
                par -= 1;
            } else if u.is_punct('<') {
                ang += 1;
            } else if u.is_punct('>') && !self.t[j - 1].is_punct('-') {
                ang -= 1;
            } else if u.is_punct('{') {
                br += 1;
            } else if u.is_punct('}') {
                br -= 1;
            }
            chunk.push(j);
        }
        (out, tys)
    }

    fn impl_item(&mut self, line: u32) -> Item {
        self.i += 1; // impl
        self.skip_generics();
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        while self.i < self.t.len() && !self.t[self.i].is_punct('{') {
            let t = &self.t[self.i];
            if t.is_ident("for") {
                saw_for = true;
                self.i += 1;
            } else if t.is_ident("where") {
                while self.i < self.t.len() && !self.t[self.i].is_punct('{') {
                    self.i += 1;
                }
            } else if t.is_punct('<') {
                self.skip_generics();
            } else {
                if t.kind == TokKind::Ident {
                    let bucket = if saw_for { &mut after_for } else { &mut before_for };
                    bucket.push(t.text.clone());
                }
                self.i += 1;
            }
        }
        let (trait_name, self_ty) = if saw_for {
            (before_for.last().cloned(), after_for.last().cloned().unwrap_or_default())
        } else {
            (None, before_for.last().cloned().unwrap_or_default())
        };
        let mut items = Vec::new();
        if self.at(self.i).is_some_and(|t| t.is_punct('{')) {
            let close = self.matching(self.i);
            self.i += 1;
            items = self.items(close);
            self.i = close + 1;
        }
        Item { name: self_ty, line, is_pub: false, kind: ItemKind::Impl { trait_name, items } }
    }

    fn trait_item(&mut self, is_pub: bool, line: u32) -> Item {
        self.i += 1; // trait
        let name = self.ident_text();
        self.skip_generics();
        while self.at(self.i).is_some_and(|t| !t.is_punct('{') && !t.is_punct(';')) {
            self.i += 1; // supertrait bounds / where clause
        }
        let mut items = Vec::new();
        if self.at(self.i).is_some_and(|t| t.is_punct('{')) {
            let close = self.matching(self.i);
            self.i += 1;
            items = self.items(close);
            self.i = close + 1;
        }
        Item { name, line, is_pub, kind: ItemKind::Trait { items } }
    }

    fn mod_item(&mut self, is_pub: bool, cfg_test: bool, line: u32) -> Item {
        self.i += 1; // mod
        let name = self.ident_text();
        let is_test = cfg_test || name == "tests" || name == "test";
        let mut items = Vec::new();
        match self.at(self.i) {
            Some(t) if t.is_punct('{') => {
                let close = self.matching(self.i);
                self.i += 1;
                items = self.items(close);
                self.i = close + 1;
            }
            _ => self.skip_to_semi(), // `mod name;`
        }
        Item { name, line, is_pub, kind: ItemKind::Mod { is_test, items } }
    }
}

/// `ident (` is a call unless the ident is a statement keyword.
pub fn is_call_keyword(name: &str) -> bool {
    STMT_KEYWORDS.contains(&name)
}

/// Flatten one `use` tree (the tokens between `use` and `;`) into leaf
/// imports. Handles `::`-separated paths, nested `{…}` groups, `as`
/// renames, `*` globs, and group-inner `self` (`use m::{self, x}`).
fn use_tree(toks: &[Tok], prefix: &mut Vec<String>, out: &mut Vec<UseImport>) {
    let base_len = prefix.len();
    let mut j = 0;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Ident && !t.is_ident("as") {
            if t.is_ident("self") && !prefix.is_empty() && j + 1 >= toks.len() {
                // `use m::{self}` — binds the module itself.
                out.push(UseImport {
                    path: prefix.clone(),
                    alias: prefix.last().cloned().unwrap_or_default(),
                    glob: false,
                });
                prefix.truncate(base_len);
                return;
            }
            prefix.push(t.text.clone());
            j += 1;
        } else if t.is_punct(':') {
            j += 1; // `::` lexes as two `:` puncts
        } else if t.is_punct('{') {
            // Nested group: split by top-level commas and recurse.
            let mut depth = 0usize;
            let mut close = j;
            while close < toks.len() {
                if toks[close].is_punct('{') {
                    depth += 1;
                } else if toks[close].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                close += 1;
            }
            let inner = &toks[j + 1..close.min(toks.len())];
            let mut start = 0;
            let mut depth = 0i32;
            for (k, u) in inner.iter().enumerate() {
                if u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct('}') {
                    depth -= 1;
                } else if u.is_punct(',') && depth == 0 {
                    use_tree(&inner[start..k], prefix, out);
                    start = k + 1;
                }
            }
            if start < inner.len() {
                use_tree(&inner[start..], prefix, out);
            }
            prefix.truncate(base_len);
            return;
        } else if t.is_punct('*') {
            out.push(UseImport { path: prefix.clone(), alias: String::new(), glob: true });
            prefix.truncate(base_len);
            return;
        } else if t.is_ident("as") {
            let alias = toks.get(j + 1).map(|t| t.text.clone()).unwrap_or_default();
            out.push(UseImport { path: prefix.clone(), alias, glob: false });
            prefix.truncate(base_len);
            return;
        } else {
            j += 1;
        }
    }
    if prefix.len() > base_len {
        out.push(UseImport {
            path: prefix.clone(),
            alias: prefix.last().cloned().unwrap_or_default(),
            glob: false,
        });
    }
    prefix.truncate(base_len);
}

fn join(toks: &[Tok]) -> String {
    toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<Item> {
        parse_items(&code_toks(src))
    }

    #[test]
    fn struct_fields_with_generics_and_vis() {
        let items = parse(
            "pub struct Cfg { pub a: u64, b: Vec<(u32, u32)>, pub(crate) m: HashMap<K, V>, }",
        );
        let ItemKind::Struct { fields } = &items[0].kind else { panic!("{items:?}") };
        assert_eq!(items[0].name, "Cfg");
        assert!(items[0].is_pub);
        let names: Vec<_> = fields.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(names, [("a", true), ("b", false), ("m", true)]);
        assert!(fields[2].ty.contains("HashMap"));
    }

    #[test]
    fn enum_variants_with_payloads() {
        let items = parse("enum E { A, B(u64), C { x: u64 }, D = 4, }");
        let ItemKind::Enum { variants } = &items[0].kind else { panic!("{items:?}") };
        let names: Vec<_> = variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["A", "B", "C", "D"]);
    }

    #[test]
    fn fn_params_ret_and_body_span() {
        let code = code_toks("fn scale(mut self, factor: f64) -> Self { self.x = factor; self }");
        let items = parse_items(&code);
        let ItemKind::Fn(f) = &items[0].kind else { panic!("{items:?}") };
        assert_eq!(f.params, ["factor"]);
        assert_eq!(f.ret, "- > Self");
        let (open, close) = f.body.unwrap();
        assert!(code[open].is_punct('{') && code[close].is_punct('}'));
    }

    #[test]
    fn impl_blocks_carry_self_type_and_methods() {
        let items = parse(
            "impl<T: Sink> Hierarchy<B, T> { fn tick(&mut self) {} }\n\
             impl fmt::Display for Latency { fn fmt(&self, f: &mut F) -> R { write(f) } }",
        );
        let ItemKind::Impl { trait_name, items: m } = &items[0].kind else { panic!() };
        assert_eq!(items[0].name, "Hierarchy");
        assert!(trait_name.is_none());
        assert_eq!(m[0].name, "tick");
        let ItemKind::Impl { trait_name, .. } = &items[1].kind else { panic!() };
        assert_eq!(items[1].name, "Latency");
        assert_eq!(trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn cfg_test_and_named_test_mods_are_marked() {
        let items = parse("#[cfg(test)] mod tests { fn helper() {} } mod real { fn live() {} }");
        let ItemKind::Mod { is_test, .. } = &items[0].kind else { panic!() };
        assert!(is_test);
        let ItemKind::Mod { is_test, .. } = &items[1].kind else { panic!() };
        assert!(!is_test);
    }

    #[test]
    fn consts_with_array_semicolons_do_not_derail() {
        let items = parse("const TABLE: [u64; 4] = [0; 4]; pub fn after() {}");
        assert_eq!(items[0].name, "TABLE");
        assert!(matches!(items[0].kind, ItemKind::Const { .. }));
        assert_eq!(items[1].name, "after");
    }

    #[test]
    fn statics_capture_their_declared_type() {
        let items = parse("static STATE: LazyLock<Mutex<BTreeMap<u64, u64>>> = LazyLock::new(f);");
        let ItemKind::Const { ty } = &items[0].kind else { panic!("{items:?}") };
        assert!(ty.contains("Mutex"), "{ty}");
        assert!(!ty.contains("LazyLock :: new"), "initializer excluded: {ty}");
    }

    #[test]
    fn fn_param_types_are_captured_per_binding() {
        let items = parse("fn f(cfg: &SystemConfig, n: u64, (a, b): (u32, u32)) {}");
        let ItemKind::Fn(f) = &items[0].kind else { panic!() };
        assert_eq!(f.params, ["cfg", "n", "a", "b"]);
        assert_eq!(f.param_tys[0], "& SystemConfig");
        assert_eq!(f.param_tys[1], "u64");
        assert_eq!(f.param_tys[2], f.param_tys[3], "pattern params share the chunk type");
    }

    #[test]
    fn use_trees_resolve_groups_renames_and_globs() {
        let items = parse(
            "use std::collections::{BTreeMap, HashMap as Fast};\n\
             use crate::index::build_index as bi;\n\
             use coaxial_sim::env::*;\n\
             use super::state::{self, Gateway};",
        );
        let imports: Vec<&UseImport> = items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Use { imports } => Some(imports.iter()),
                _ => None,
            })
            .flatten()
            .collect();
        let leaf = |alias: &str| imports.iter().find(|u| u.alias == alias).unwrap();
        assert_eq!(leaf("BTreeMap").path, ["std", "collections", "BTreeMap"]);
        assert_eq!(leaf("Fast").path, ["std", "collections", "HashMap"]);
        assert_eq!(leaf("bi").path, ["crate", "index", "build_index"]);
        let glob = imports.iter().find(|u| u.glob).unwrap();
        assert_eq!(glob.path, ["coaxial_sim", "env"]);
        assert_eq!(leaf("state").path, ["super", "state"], "group-inner self binds the module");
        assert_eq!(leaf("Gateway").path, ["super", "state", "Gateway"]);
    }

    #[test]
    fn trait_methods_with_and_without_bodies() {
        let items = parse(
            "pub trait TelemetrySink { const ENABLED: bool; fn on_miss(&mut self, r: R); \
             fn on_reset(&mut self) {} }",
        );
        let ItemKind::Trait { items: m } = &items[0].kind else { panic!() };
        let fns: Vec<_> = m
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Fn(f) => Some((i.name.as_str(), f.body.is_some())),
                _ => None,
            })
            .collect();
        assert_eq!(fns, [("on_miss", false), ("on_reset", true)]);
    }

    #[test]
    fn fn_return_type_survives_where_clause() {
        let items = parse("fn make<K>() -> HashMap<K, u64> where K: Ord { todo() }");
        let ItemKind::Fn(f) = &items[0].kind else { panic!() };
        assert!(f.ret.contains("HashMap"));
        assert!(!f.ret.contains("Ord"));
    }
}
