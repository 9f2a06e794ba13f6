//! Resolved-path semantic model: the module tree, import resolution, and
//! fully-qualified symbol IDs the precise linkage mode is built on.
//!
//! The [`crate::symbols`] graph historically linked references by bare
//! name — a `.seed` read anywhere credited every struct field named
//! `seed`. This pass replaces that with real resolution:
//!
//! 1. **Module tree** from file layout plus inline `mod` items:
//!    `crates/sim/src/env.rs` is module `coaxial_sim::env`, the root
//!    `src/lib.rs` is crate `coaxial`, and every bin/test/bench/example
//!    file is its own crate root (named `#bin:…`/`#t:…` so synthetic
//!    roots can never collide with identifier paths).
//! 2. **Imports**: `use` trees (nested groups, `as` renames, globs,
//!    `crate::`/`super::`/`self::` prefixes) become per-module alias
//!    tables, resolved recursively — so the root façade's
//!    `pub use coaxial_system as system;` makes
//!    `coaxial::system::experiments::f` resolve through two crates.
//! 3. **Definitions**: structs (with per-field resolved types), enums,
//!    traits, free fns, methods (impl blocks resolved to their `Self`
//!    type), and consts/statics (with `Mutex` detection for the lock
//!    rules) are indexed by fully-qualified ID.
//!
//! Resolution is deliberately *partial*: anything it cannot prove (std
//! types, generics, trait objects, macro output) reports
//! [`Res::Unknown`], and the symbol graph falls back to the old bare-name
//! linking for exactly those sites. Precision therefore only ever
//! *removes* false cross-module links; it cannot lose a reference that
//! the name-based graph would have seen. The remaining imprecision is
//! documented in DESIGN.md §5e.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{FieldDef, Item, ItemKind};

/// How the symbol graph links references across files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Historical behavior: references link to every same-named symbol.
    ByName,
    /// Resolve through the module tree; bare-name fallback only where
    /// resolution fails.
    Resolved,
}

/// What a path resolved to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Res {
    Module(String),
    /// Struct, enum, or trait — a type usable as a path prefix.
    Type(String),
    Fn(String),
    Const(String),
    Method {
        owner: String,
        name: String,
    },
    Variant {
        owner: String,
        name: String,
    },
    Unknown,
}

/// A resolved field/const type: the target struct/enum fq (through
/// `&`/`Box`/`Arc`/`Rc` and, for statics, `LazyLock`/`OnceLock`), plus
/// whether a `Mutex` wrapper was crossed on the way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TyRes {
    pub ty: Option<String>,
    pub mutex: bool,
}

/// Signature facts for one fn or method.
#[derive(Debug, Clone, Default)]
pub struct FnInfo {
    /// Resolved return type, `Self` mapped to the owner.
    pub ret: Option<String>,
}

#[derive(Debug, Clone, Default)]
struct Module {
    root: String,
    children: BTreeSet<String>,
    types: BTreeSet<String>,
    fn_names: BTreeSet<String>,
    const_names: BTreeSet<String>,
    /// Local alias → raw path (leading `crate`/`super`/`self` kept).
    imports: BTreeMap<String, Vec<String>>,
    globs: Vec<Vec<String>>,
}

/// Deferred-resolution records captured during registration.
#[derive(Debug, Clone)]
struct RawImpl {
    module: String,
    owner: String,
    methods: Vec<(String, String)>, // (name, ret_raw)
}

#[derive(Debug, Clone)]
struct RawStruct {
    module: String,
    fq: String,
    fields: Vec<FieldDef>,
}

/// The workspace-wide resolver. Built once from every file's item tree;
/// queried by the symbol graph while it analyzes fn bodies.
#[derive(Debug, Clone, Default)]
pub struct Resolver {
    modules: BTreeMap<String, Module>,
    roots: BTreeSet<String>,
    module_by_rel: BTreeMap<String, String>,
    /// Struct fq → field name → resolved type.
    pub struct_fields: BTreeMap<String, BTreeMap<String, TyRes>>,
    pub enums: BTreeMap<String, BTreeSet<String>>,
    pub traits: BTreeMap<String, BTreeSet<String>>,
    /// Free fn fq → signature info (multiple cfg-gated defs collapse to
    /// the last one; they share a name and almost always a shape).
    pub fns: BTreeMap<String, FnInfo>,
    /// Type fq → method name → signature info.
    pub methods: BTreeMap<String, BTreeMap<String, FnInfo>>,
    /// Const/static fq → declared type.
    pub consts: BTreeMap<String, TyRes>,
}

const RESOLVE_DEPTH: usize = 24;

/// Deref-transparent wrappers: `W<T>` is navigated as `T`.
const TRANSPARENT: &[&str] = &["Box", "Arc", "Rc", "LazyLock", "OnceLock"];

impl Resolver {
    /// Build the resolver from every file's parsed item tree.
    pub fn build(files: &[(&str, &[Item])]) -> Self {
        let mut r = Self::default();
        let mut raw_impls: Vec<RawImpl> = Vec::new();
        let mut raw_structs: Vec<RawStruct> = Vec::new();
        let mut raw_consts: Vec<(String, String, String)> = Vec::new(); // (module, name, ty)
        let mut raw_fns: Vec<(String, String, String)> = Vec::new(); // (fq, ret_raw, module)

        for (rel, items) in files {
            let module = module_for_rel(rel);
            r.module_by_rel.insert((*rel).to_string(), module.clone());
            r.register_module_chain(&module);
            r.register_items(
                &module,
                items,
                &mut raw_impls,
                &mut raw_structs,
                &mut raw_consts,
                &mut raw_fns,
            );
        }

        // Phase 2: impl owners (types may live in sibling files/modules).
        let mut raw_methods: Vec<(String, String, String, String)> = Vec::new();
        for ri in &raw_impls {
            let owner_fq = match r.resolve_path(&ri.module, &[ri.owner.as_str()], RESOLVE_DEPTH) {
                Res::Type(fq) => fq,
                // Unresolvable `Self` type (generic alias, macro output):
                // park the methods under a `?::`-prefixed pseudo-fq that no
                // resolved path can produce, so they are only reachable via
                // the bare-name fallback.
                _ => format!("?::{}::{}", ri.module, ri.owner),
            };
            for (name, ret_raw) in &ri.methods {
                raw_methods.push((
                    owner_fq.clone(),
                    name.clone(),
                    ret_raw.clone(),
                    ri.module.clone(),
                ));
            }
        }
        for (owner, name, _, _) in &raw_methods {
            r.methods.entry(owner.clone()).or_default().insert(name.clone(), FnInfo { ret: None });
        }

        // Phase 3: resolve declared types now that every def is indexed.
        for rs in &raw_structs {
            let fields = rs
                .fields
                .iter()
                .map(|f| (f.name.clone(), r.resolve_type_text(&rs.module, &f.ty)))
                .collect();
            r.struct_fields.insert(rs.fq.clone(), fields);
        }
        for (module, name, ty) in &raw_consts {
            let res = r.resolve_type_text(module, ty);
            r.consts.insert(format!("{module}::{name}"), res);
        }
        for (fq, ret_raw, module) in &raw_fns {
            let ret = r.resolve_ret(module, None, ret_raw);
            r.fns.insert(fq.clone(), FnInfo { ret });
        }
        let resolved_rets: Vec<(String, String, Option<String>)> = raw_methods
            .iter()
            .map(|(owner, name, ret_raw, module)| {
                (owner.clone(), name.clone(), r.resolve_ret(module, Some(owner), ret_raw))
            })
            .collect();
        for (owner, name, ret) in resolved_rets {
            if let Some(info) = r.methods.get_mut(&owner).and_then(|m| m.get_mut(&name)) {
                info.ret = ret;
            }
        }
        r
    }

    fn register_module_chain(&mut self, module: &str) {
        let segs: Vec<&str> = module.split("::").collect();
        let root = segs[0].to_string();
        self.roots.insert(root.clone());
        for i in 1..=segs.len() {
            let path = segs[..i].join("::");
            let m = self.modules.entry(path).or_default();
            m.root = root.clone();
            if i < segs.len() {
                m.children.insert(segs[i].to_string());
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn register_items(
        &mut self,
        module: &str,
        items: &[Item],
        raw_impls: &mut Vec<RawImpl>,
        raw_structs: &mut Vec<RawStruct>,
        raw_consts: &mut Vec<(String, String, String)>,
        raw_fns: &mut Vec<(String, String, String)>,
    ) {
        for item in items {
            match &item.kind {
                ItemKind::Struct { fields } => {
                    self.modules.get_mut(module).unwrap().types.insert(item.name.clone());
                    raw_structs.push(RawStruct {
                        module: module.to_string(),
                        fq: format!("{module}::{}", item.name),
                        fields: fields.clone(),
                    });
                }
                ItemKind::Enum { variants } => {
                    self.modules.get_mut(module).unwrap().types.insert(item.name.clone());
                    self.enums.insert(
                        format!("{module}::{}", item.name),
                        variants.iter().map(|v| v.name.clone()).collect(),
                    );
                }
                ItemKind::Trait { items: inner } => {
                    self.modules.get_mut(module).unwrap().types.insert(item.name.clone());
                    let trait_fq = format!("{module}::{}", item.name);
                    let mut methods = BTreeSet::new();
                    let mut raw = RawImpl {
                        module: module.to_string(),
                        owner: item.name.clone(),
                        methods: Vec::new(),
                    };
                    for it in inner {
                        if let ItemKind::Fn(def) = &it.kind {
                            methods.insert(it.name.clone());
                            raw.methods.push((it.name.clone(), def.ret.clone()));
                        }
                    }
                    self.traits.insert(trait_fq, methods);
                    raw_impls.push(raw);
                }
                ItemKind::Fn(def) => {
                    self.modules.get_mut(module).unwrap().fn_names.insert(item.name.clone());
                    raw_fns.push((
                        format!("{module}::{}", item.name),
                        def.ret.clone(),
                        module.to_string(),
                    ));
                }
                ItemKind::Impl { items: inner, .. } => {
                    let mut raw = RawImpl {
                        module: module.to_string(),
                        owner: item.name.clone(),
                        methods: Vec::new(),
                    };
                    for it in inner {
                        if let ItemKind::Fn(def) = &it.kind {
                            raw.methods.push((it.name.clone(), def.ret.clone()));
                        }
                    }
                    raw_impls.push(raw);
                }
                ItemKind::Mod { items: inner, .. } => {
                    let sub = format!("{module}::{}", item.name);
                    self.modules.get_mut(module).unwrap().children.insert(item.name.clone());
                    let root = self.modules[module].root.clone();
                    self.modules.entry(sub.clone()).or_default().root = root;
                    self.register_items(&sub, inner, raw_impls, raw_structs, raw_consts, raw_fns);
                }
                ItemKind::Const { ty } => {
                    self.modules.get_mut(module).unwrap().const_names.insert(item.name.clone());
                    raw_consts.push((module.to_string(), item.name.clone(), ty.clone()));
                }
                ItemKind::Use { imports } => {
                    let m = self.modules.get_mut(module).unwrap();
                    for u in imports {
                        if u.glob {
                            m.globs.push(u.path.clone());
                        } else if !u.alias.is_empty() {
                            m.imports.insert(u.alias.clone(), u.path.clone());
                        }
                    }
                }
            }
        }
    }

    /// The module a repo-relative file maps to, if it was registered.
    pub fn module_of(&self, rel: &str) -> Option<&str> {
        self.module_by_rel.get(rel).map(String::as_str)
    }

    /// Resolve `segs` as a path written inside `module`.
    pub fn resolve_path(&self, module: &str, segs: &[&str], depth: usize) -> Res {
        if segs.is_empty() || depth == 0 {
            return Res::Unknown;
        }
        let mut idx = 1;
        let mut cur = match segs[0] {
            "crate" => {
                let root = self.modules.get(module).map_or(module, |m| m.root.as_str());
                Res::Module(root.to_string())
            }
            "self" => Res::Module(module.to_string()),
            "super" => match module.rsplit_once("::") {
                Some((parent, _)) => Res::Module(parent.to_string()),
                None => return Res::Unknown,
            },
            s if self.roots.contains(s) => Res::Module(s.to_string()),
            s => self.lookup(module, s, depth),
        };
        while idx < segs.len() {
            let seg = segs[idx];
            cur = match cur {
                Res::Module(ref m) => {
                    if seg == "super" {
                        match m.rsplit_once("::") {
                            Some((parent, _)) => Res::Module(parent.to_string()),
                            None => Res::Unknown,
                        }
                    } else if seg == "self" {
                        cur.clone()
                    } else {
                        self.lookup(m, seg, depth)
                    }
                }
                Res::Type(ref t) => self.type_member(t, seg),
                _ => Res::Unknown,
            };
            if cur == Res::Unknown {
                return Res::Unknown;
            }
            idx += 1;
        }
        cur
    }

    /// A member of type `t`: method (inherent or trait-default) or enum
    /// variant.
    pub fn type_member(&self, t: &str, seg: &str) -> Res {
        if self.methods.get(t).is_some_and(|ms| ms.contains_key(seg))
            || self.traits.get(t).is_some_and(|ms| ms.contains(seg))
        {
            Res::Method { owner: t.to_string(), name: seg.to_string() }
        } else if self.enums.get(t).is_some_and(|vs| vs.contains(seg)) {
            Res::Variant { owner: t.to_string(), name: seg.to_string() }
        } else {
            Res::Unknown
        }
    }

    /// One name inside one module: child module, local definition, import
    /// alias, then glob imports (direct definitions only — glob chains do
    /// not recurse; documented imprecision).
    fn lookup(&self, module: &str, name: &str, depth: usize) -> Res {
        let Some(m) = self.modules.get(module) else { return Res::Unknown };
        if let Some(res) = self.lookup_defs(module, m, name) {
            return res;
        }
        if let Some(path) = m.imports.get(name) {
            let segs: Vec<&str> = path.iter().map(String::as_str).collect();
            return self.resolve_import(module, &segs, depth - 1);
        }
        for glob in &m.globs {
            let segs: Vec<&str> = glob.iter().map(String::as_str).collect();
            if let Res::Module(g) = self.resolve_import(module, &segs, depth - 1) {
                if let Some(gm) = self.modules.get(&g) {
                    if let Some(res) = self.lookup_defs(&g, gm, name) {
                        return res;
                    }
                }
            }
        }
        Res::Unknown
    }

    fn lookup_defs(&self, module: &str, m: &Module, name: &str) -> Option<Res> {
        if m.children.contains(name) {
            return Some(Res::Module(format!("{module}::{name}")));
        }
        if m.types.contains(name) {
            return Some(Res::Type(format!("{module}::{name}")));
        }
        if m.fn_names.contains(name) {
            return Some(Res::Fn(format!("{module}::{name}")));
        }
        if m.const_names.contains(name) {
            return Some(Res::Const(format!("{module}::{name}")));
        }
        None
    }

    /// A `use`-style path. 2018-edition uniform paths make the leading
    /// segment resolve like any in-scope name — a crate root, a
    /// `crate`/`super`/`self` keyword, or a sibling module/import of the
    /// using module (`pub use checkpoint::CheckpointStore` in a lib root).
    /// External crates (std, core) stay unresolvable.
    fn resolve_import(&self, module: &str, segs: &[&str], depth: usize) -> Res {
        if segs.is_empty() || depth == 0 {
            return Res::Unknown;
        }
        self.resolve_path(module, segs, depth)
    }

    /// Resolve a declared-type text (space-joined tokens, e.g.
    /// `& mut Vec < u64 >` or `LazyLock < Mutex < Store > >`).
    pub fn resolve_type_text(&self, module: &str, ty: &str) -> TyRes {
        let toks: Vec<&str> = ty.split_whitespace().collect();
        self.resolve_type_toks(module, &toks)
    }

    fn resolve_type_toks(&self, module: &str, toks: &[&str]) -> TyRes {
        let mut i = 0;
        // Strip references, mutability, lifetimes.
        while i < toks.len() && (toks[i] == "&" || toks[i] == "mut" || toks[i].starts_with('\'')) {
            i += 1;
        }
        // Leading path: idents separated by `:` tokens.
        let mut segs: Vec<&str> = Vec::new();
        while i < toks.len() {
            let t = toks[i];
            if t == ":" {
                i += 1;
            } else if t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') {
                if !segs.is_empty() && i > 0 && toks[i - 1] != ":" {
                    break; // two idents with no `::` — not one path
                }
                segs.push(t);
                i += 1;
            } else {
                break;
            }
        }
        let Some(&head) = segs.last() else { return TyRes::default() };
        if TRANSPARENT.contains(&head) || head == "Mutex" {
            // Unwrap one generic level and recurse into the payload.
            if i < toks.len() && toks[i] == "<" {
                let inner = generic_payload(&toks[i..]);
                let mut res = self.resolve_type_toks(module, inner);
                if head == "Mutex" {
                    res.mutex = true;
                }
                return res;
            }
            return TyRes::default();
        }
        match self.resolve_path(module, &segs, RESOLVE_DEPTH) {
            Res::Type(fq) => TyRes { ty: Some(fq), mutex: false },
            _ => TyRes::default(),
        }
    }

    /// Resolve a fn return-type text (`- > Self`, `- > Simulation < T >`)
    /// in its defining module; `Self` maps to `owner`.
    fn resolve_ret(&self, module: &str, owner: Option<&str>, ret_raw: &str) -> Option<String> {
        let text = ret_raw.trim_start_matches(['-', '>', ' ']);
        if text.is_empty() {
            return None;
        }
        if text.split_whitespace().next() == Some("Self") {
            return owner.map(str::to_string);
        }
        self.resolve_type_text(module, text).ty
    }

    /// Does `fq` name a struct with field `name`? (The validation guard:
    /// a typed read only counts when the resolved struct really declares
    /// the field — otherwise the site falls back to bare-name linking.)
    pub fn struct_has_field(&self, fq: &str, name: &str) -> bool {
        self.struct_fields.get(fq).is_some_and(|fs| fs.contains_key(name))
    }

    pub fn field_ty(&self, fq: &str, name: &str) -> Option<&TyRes> {
        self.struct_fields.get(fq)?.get(name)
    }

    pub fn method(&self, owner: &str, name: &str) -> Option<&FnInfo> {
        self.methods.get(owner)?.get(name)
    }
}

/// The inner token slice of a leading `< … >` group (`toks[0] == "<"`).
fn generic_payload<'a>(toks: &'a [&'a str]) -> &'a [&'a str] {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate() {
        match *t {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return &toks[1..k];
                }
            }
            _ => {}
        }
    }
    &toks[1..]
}

/// Map a repo-relative path to its module path. Library files join their
/// crate's tree; bins/tests/benches/examples become isolated roots.
fn module_for_rel(rel: &str) -> String {
    let crate_lib = |dir: &str| format!("coaxial_{}", dir.replace('-', "_"));
    let stem = |name: &str| name.trim_end_matches(".rs").to_string();
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["src", "lib.rs"] => "coaxial".to_string(),
        ["src", "bin", b] => format!("#bin:{}", stem(b)),
        ["src", m] => format!("coaxial::{}", stem(m)),
        ["crates", c, "src", "lib.rs"] => crate_lib(c),
        ["crates", c, "src", "main.rs"] => format!("#bin:{c}:main"),
        ["crates", c, "src", "bin", b] => format!("#bin:{c}:{}", stem(b)),
        ["crates", c, "src", m] => format!("{}::{}", crate_lib(c), stem(m)),
        ["crates", c, kind @ ("tests" | "benches" | "examples"), t] => {
            format!("#t:{c}:{kind}:{}", stem(t))
        }
        [kind @ ("tests" | "benches" | "examples"), t] => format!("#t::{kind}:{}", stem(t)),
        _ => format!("#x:{rel}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{code_toks, parse_items};

    fn build(files: &[(&str, &str)]) -> Resolver {
        let parsed: Vec<(String, Vec<Item>)> = files
            .iter()
            .map(|(rel, src)| ((*rel).to_string(), parse_items(&code_toks(src))))
            .collect();
        let refs: Vec<(&str, &[Item])> =
            parsed.iter().map(|(rel, items)| (rel.as_str(), items.as_slice())).collect();
        Resolver::build(&refs)
    }

    #[test]
    fn file_layout_maps_to_module_paths() {
        assert_eq!(module_for_rel("src/lib.rs"), "coaxial");
        assert_eq!(module_for_rel("crates/sim/src/lib.rs"), "coaxial_sim");
        assert_eq!(module_for_rel("crates/sim/src/env.rs"), "coaxial_sim::env");
        assert_eq!(module_for_rel("src/bin/coaxial.rs"), "#bin:coaxial");
        assert_eq!(module_for_rel("crates/system/tests/loopback.rs"), "#t:system:tests:loopback");
    }

    #[test]
    fn imports_and_renames_resolve_across_crates() {
        let r = build(&[
            ("crates/sim/src/lib.rs", "pub mod env;"),
            ("crates/sim/src/env.rs", "pub fn jobs() -> usize { 1 }"),
            (
                "crates/system/src/runner.rs",
                "use coaxial_sim::env::jobs as worker_count;\npub fn go() {}",
            ),
        ]);
        let m = r.module_of("crates/system/src/runner.rs").unwrap();
        assert_eq!(
            r.resolve_path(m, &["worker_count"], RESOLVE_DEPTH),
            Res::Fn("coaxial_sim::env::jobs".to_string())
        );
        assert_eq!(
            r.resolve_path(m, &["coaxial_sim", "env", "jobs"], RESOLVE_DEPTH),
            Res::Fn("coaxial_sim::env::jobs".to_string())
        );
    }

    #[test]
    fn facade_reexports_resolve_through_two_crates() {
        let r = build(&[
            ("src/lib.rs", "pub use coaxial_system as system;"),
            ("crates/system/src/lib.rs", "pub mod experiments;"),
            ("crates/system/src/experiments.rs", "pub fn fig5_main() {}"),
            ("src/bin/coaxial.rs", "use coaxial::system::experiments;\nfn main() {}"),
        ]);
        let m = r.module_of("src/bin/coaxial.rs").unwrap();
        assert_eq!(
            r.resolve_path(m, &["experiments", "fig5_main"], RESOLVE_DEPTH),
            Res::Fn("coaxial_system::experiments::fig5_main".to_string())
        );
    }

    #[test]
    fn same_named_symbols_in_different_modules_stay_distinct() {
        let r = build(&[
            ("crates/dram/src/config.rs", "pub struct Timings { pub t_faw: u64 }"),
            ("crates/cxl/src/config.rs", "pub struct Timings { pub port_latency: u64 }"),
            ("crates/dram/src/bank.rs", "use crate::config::Timings;\nfn check(t: &Timings) {}"),
        ]);
        let m = r.module_of("crates/dram/src/bank.rs").unwrap();
        let Res::Type(fq) = r.resolve_path(m, &["Timings"], RESOLVE_DEPTH) else { panic!() };
        assert_eq!(fq, "coaxial_dram::config::Timings");
        assert!(r.struct_has_field(&fq, "t_faw"));
        assert!(!r.struct_has_field(&fq, "port_latency"));
    }

    #[test]
    fn impl_methods_attach_to_their_resolved_self_type() {
        let r = build(&[
            ("crates/gateway/src/state.rs", "pub struct Gateway { pub inner: Mutex<Inner> }\npub struct Inner { pub running: usize }"),
            (
                "crates/gateway/src/server.rs",
                "use crate::state::Gateway;\nimpl Gateway { pub fn serve(&self) -> Stats { todo() } }",
            ),
        ]);
        assert!(r.method("coaxial_gateway::state::Gateway", "serve").is_some());
        let ty = r.field_ty("coaxial_gateway::state::Gateway", "inner").unwrap();
        assert!(ty.mutex);
        assert_eq!(ty.ty.as_deref(), Some("coaxial_gateway::state::Inner"));
    }

    #[test]
    fn statics_resolve_mutex_through_lazylock() {
        let r = build(&[(
            "crates/system/src/server.rs",
            "pub struct Store { pub n: u64 }\nstatic STATE: LazyLock<Mutex<Store>> = LazyLock::new(s);",
        )]);
        let info = r.consts.get("coaxial_system::server::STATE").unwrap();
        assert!(info.mutex);
        assert_eq!(info.ty.as_deref(), Some("coaxial_system::server::Store"));
    }

    #[test]
    fn globs_and_method_returns_resolve() {
        let r = build(&[
            ("crates/sim/src/lib.rs", "pub mod env;\npub struct Rng { pub s: u64 }"),
            ("crates/sim/src/env.rs", "pub fn jobs() -> usize { 1 }"),
            (
                "crates/system/src/config.rs",
                "use coaxial_sim::*;\npub struct Cfg { pub r: Rng }\nimpl Cfg { fn rng(&self) -> Rng { todo() } fn me() -> Self { todo() } }",
            ),
        ]);
        let m = "coaxial_system::config";
        assert_eq!(
            r.resolve_path(m, &["Rng"], RESOLVE_DEPTH),
            Res::Type("coaxial_sim::Rng".to_string())
        );
        let info = r.method("coaxial_system::config::Cfg", "rng").unwrap();
        assert_eq!(info.ret.as_deref(), Some("coaxial_sim::Rng"));
        let me = r.method("coaxial_system::config::Cfg", "me").unwrap();
        assert_eq!(me.ret.as_deref(), Some("coaxial_system::config::Cfg"), "Self maps to owner");
    }
}
