//! Incremental, memoizing evaluator for the Cuneiform-style DSL.
//!
//! ## Execution model (paper Figure 3)
//!
//! Applying a task submits it (once — applications are memoized on the
//! rendered argument tuple) and immediately returns its declared output
//! files as *promises*: downstream tasks can be discovered right away, and
//! the Workflow Driver withholds their launch until the producing files
//! actually exist in HDFS. Evaluation only *blocks* on `val(x)` — reading
//! the exit value of the task that produced `x` — and therefore on any
//! `if` whose condition depends on such a value. A round evaluates the
//! program from the root; memoization makes it idempotent, and whatever
//! new applications become reachable are the "newly discovered tasks"
//! handed to the scheduler.
//!
//! A round is a deterministic function of the tasks' `done` flags, and
//! only `val()` reads them. So a completion triggers a new round only if
//! the last round's `val()` blocked on that task (its *wait set*) or the
//! last round failed; any other completion would replay the same path
//! through memoized applications and discover nothing.
//!
//! ## Simulated tool semantics
//!
//! A real tool writes results the workflow may branch on. Here the
//! `deftask ... yield <expr>` clause plays that role: the expression is
//! evaluated over the task's arguments when the task completes (plus
//! `prob(p)`, a deterministic pseudo-random draw seeded by the workflow
//! seed and the task identity, standing in for data-dependent outcomes).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};

use crate::ir::{LangError, OutputSpec, TaskCost, TaskId, TaskSpec, WorkflowSource};

use super::ast::{Expr, FunDef, Item, Program, TaskDef};
use super::parser::parse_program;

/// The deepest `eval` nesting a round may reach. Syntactic nesting (at
/// most 128 levels per expression, see the parser) and `defun` recursion
/// both count, so a recursion without a blocking `val()` guard stops here
/// with a `LangError`. Sized so that a round at the limit fits a 2 MiB
/// thread in a debug build; SNV, k-means and the examples reach depth 6
/// at most.
const MAX_EVAL_DEPTH: usize = 256;

/// A runtime value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Num(f64),
    Str(String),
    List(Vec<Value>),
    File {
        path: String,
        size: u64,
        /// The task that will produce this file; `None` for workflow inputs.
        producer: Option<TaskId>,
    },
}

impl Value {
    /// Canonical rendering, used for memo keys and path templates.
    fn render(&self) -> String {
        match self {
            Value::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => format!("{}", *n as i64),
            Value::Num(n) => format!("{n}"),
            Value::Str(s) => s.clone(),
            Value::File { path, .. } => path.clone(),
            Value::List(items) => items
                .iter()
                .map(Value::render)
                .collect::<Vec<_>>()
                .join(","),
        }
    }

    fn truthy(&self) -> Result<bool, String> {
        match self {
            Value::Num(n) => Ok(*n != 0.0),
            other => Err(format!("expected a number in condition, got {other:?}")),
        }
    }

    fn num(&self) -> Result<f64, String> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }

    /// All file paths reachable in this value (inputs of a task call).
    fn collect_files(&self, into: &mut Vec<String>) {
        match self {
            Value::File { path, .. } => into.push(path.clone()),
            Value::List(items) => {
                for v in items {
                    v.collect_files(into);
                }
            }
            _ => {}
        }
    }

    /// Total size of all files in this value, for `insize`.
    fn total_size(&self) -> u64 {
        match self {
            Value::File { size, .. } => *size,
            Value::List(items) => items.iter().map(Value::total_size).sum(),
            _ => 0,
        }
    }
}

/// Why evaluation stopped early.
enum Stop {
    /// Waiting on at least one task completion.
    Blocked,
    Error(LangError),
}

type Eval = Result<Value, Stop>;

struct TaskState {
    /// The value the application evaluates to (output file promises).
    result: Value,
    /// Simulated tool exit value, readable once `done` via `val(...)`.
    exit: Value,
    done: bool,
}

/// A parsed Cuneiform workflow with incremental evaluation state.
pub struct CuneiformWorkflow {
    name: String,
    seed: u64,
    tasks_defs: HashMap<String, TaskDef>,
    funs: HashMap<String, FunDef>,
    lets: Vec<(String, Expr)>,
    target: Expr,
    /// Memoized applications: rendered key → state.
    memo: BTreeMap<String, TaskState>,
    by_id: HashMap<TaskId, String>,
    next_task: u64,
    /// Tasks discovered by the current evaluation round.
    newly: Vec<TaskSpec>,
    /// Output paths already promised, to reject template collisions.
    promised_outputs: HashMap<String, String>,
    required: BTreeSet<String>,
    complete: bool,
    /// Producers whose `val()` blocked during the last round.
    waiting_on: HashSet<TaskId>,
    /// Whether the last round returned `Ok`; until then, and after an
    /// error, every completion re-evaluates.
    settled: bool,
    /// Current `eval` nesting, bounded by [`MAX_EVAL_DEPTH`].
    depth: usize,
}

impl CuneiformWorkflow {
    /// Parses `src` into a workflow named `name`. `seed` drives `prob(p)`
    /// draws, standing in for data-dependent tool outcomes.
    pub fn parse(name: impl Into<String>, src: &str, seed: u64) -> Result<Self, LangError> {
        let program: Program = parse_program(src)?;
        let target = program
            .target()
            .ok_or_else(|| LangError::new("cuneiform", "workflow has no target expression"))?;
        let mut tasks_defs = HashMap::new();
        let mut funs = HashMap::new();
        let mut lets = Vec::new();
        for item in program.items {
            match item {
                Item::Deftask(t) => {
                    if tasks_defs.insert(t.name.clone(), t).is_some() {
                        return Err(LangError::new("cuneiform", "duplicate deftask"));
                    }
                }
                Item::Defun(f) => {
                    if funs.insert(f.name.clone(), f).is_some() {
                        return Err(LangError::new("cuneiform", "duplicate defun"));
                    }
                }
                Item::Let { name, value } => lets.push((name, value)),
                Item::Target(_) => {}
            }
        }
        Ok(CuneiformWorkflow {
            name: name.into(),
            seed,
            tasks_defs,
            funs,
            lets,
            target,
            memo: BTreeMap::new(),
            by_id: HashMap::new(),
            next_task: 0,
            newly: Vec::new(),
            promised_outputs: HashMap::new(),
            required: BTreeSet::new(),
            complete: false,
            waiting_on: HashSet::new(),
            settled: false,
            depth: 0,
        })
    }

    /// Marks `task` finished, so `val()` on its outputs yields its exit value.
    fn mark_done(&mut self, task: TaskId) -> Result<(), LangError> {
        let key = self
            .by_id
            .get(&task)
            .ok_or_else(|| LangError::new("cuneiform", format!("unknown task {task:?}")))?;
        self.memo.get_mut(key).expect("keyed state").done = true;
        Ok(())
    }

    /// Runs one evaluation round from the root; returns the newly
    /// discovered tasks and records the round's wait set.
    /// `on_task_completed` runs a round only when that wait set (or a
    /// failed round) says it can find something.
    fn evaluate_round(&mut self) -> Result<Vec<TaskSpec>, LangError> {
        self.settled = false;
        self.newly.clear();
        self.waiting_on.clear();
        let mut env: Vec<(String, Value)> = Vec::new();
        let lets = self.lets.clone();
        let target = self.target.clone();
        let mut blocked = false;
        for (name, expr) in &lets {
            match self.eval(expr, &env) {
                Ok(v) => env.push((name.clone(), v)),
                Err(Stop::Blocked) => {
                    blocked = true;
                    break;
                }
                Err(Stop::Error(e)) => return Err(e),
            }
        }
        if !blocked {
            match self.eval(&target, &env) {
                Ok(_) => self.complete = true,
                Err(Stop::Blocked) => {}
                Err(Stop::Error(e)) => return Err(e),
            }
        }
        self.settled = true;
        Ok(std::mem::take(&mut self.newly))
    }

    fn error(&self, msg: impl Into<String>) -> Stop {
        Stop::Error(LangError::new("cuneiform", msg))
    }

    /// Evaluates `expr`, counting the nesting against
    /// [`MAX_EVAL_DEPTH`]: syntactic nesting and `defun` recursion share
    /// the one budget, so a runaway recursion is an error, not a stack
    /// overflow.
    fn eval(&mut self, expr: &Expr, env: &[(String, Value)]) -> Eval {
        if self.depth == MAX_EVAL_DEPTH {
            return Err(self.error(format!(
                "evaluation nested more than {MAX_EVAL_DEPTH} levels deep — \
                 unbounded recursion needs a data-dependent val() guard"
            )));
        }
        self.depth += 1;
        let value = self.eval_expr(expr, env);
        self.depth -= 1;
        value
    }

    fn eval_expr(&mut self, expr: &Expr, env: &[(String, Value)]) -> Eval {
        match expr {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                let mut blocked = false;
                for e in items {
                    match self.eval(e, env) {
                        Ok(v) => out.push(v),
                        Err(Stop::Blocked) => blocked = true,
                        err => return err,
                    }
                }
                if blocked {
                    Err(Stop::Blocked)
                } else {
                    Ok(Value::List(out))
                }
            }
            Expr::Var(name) => env
                .iter()
                .rev()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| self.error(format!("unbound variable '{name}'"))),
            Expr::If {
                cond,
                then,
                otherwise,
            } => {
                let c = self.eval(cond, env)?;
                let c = c.truthy().map_err(|e| self.error(e))?;
                if c {
                    self.eval(then, env)
                } else {
                    self.eval(otherwise, env)
                }
            }
            Expr::LetIn { name, value, body } => {
                let v = self.eval(value, env)?;
                let mut inner = env.to_vec();
                inner.push((name.clone(), v));
                self.eval(body, &inner)
            }
            Expr::Call { name, args } => self.call(name, args, env),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], env: &[(String, Value)]) -> Eval {
        // Evaluate arguments first (blocking propagates, but evaluate all
        // of them so parallel branches keep discovering tasks).
        let mut values = Vec::with_capacity(args.len());
        let mut blocked = false;
        for a in args {
            match self.eval(a, env) {
                Ok(v) => values.push(v),
                Err(Stop::Blocked) => blocked = true,
                err => return err,
            }
        }
        if blocked {
            return Err(Stop::Blocked);
        }

        if let Some(v) = self.builtin(name, &values)? {
            return Ok(v);
        }
        if let Some(fun) = self.funs.get(name).cloned() {
            if fun.params.len() != values.len() {
                return Err(self.error(format!(
                    "function '{name}' expects {} arguments, got {}",
                    fun.params.len(),
                    values.len()
                )));
            }
            let inner: Vec<(String, Value)> = fun.params.iter().cloned().zip(values).collect();
            return self.eval(&fun.body, &inner);
        }
        if let Some(def) = self.tasks_defs.get(name).cloned() {
            return self.apply_task(&def, &values);
        }
        Err(self.error(format!("unknown function or task '{name}'")))
    }

    /// Builtins return `Ok(Some(v))` when `name` is one of theirs.
    fn builtin(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, Stop> {
        let arity = |n: usize| -> Result<(), Stop> {
            if args.len() != n {
                Err(self.error(format!(
                    "'{name}' expects {n} argument(s), got {}",
                    args.len()
                )))
            } else {
                Ok(())
            }
        };
        let bin_num = |f: fn(f64, f64) -> f64| -> Result<Option<Value>, Stop> {
            arity(2)?;
            let a = args[0].num().map_err(|e| self.error(e))?;
            let b = args[1].num().map_err(|e| self.error(e))?;
            Ok(Some(Value::Num(f(a, b))))
        };
        let cmp = |f: fn(f64, f64) -> bool| -> Result<Option<Value>, Stop> {
            arity(2)?;
            let a = args[0].num().map_err(|e| self.error(e))?;
            let b = args[1].num().map_err(|e| self.error(e))?;
            Ok(Some(Value::Num(if f(a, b) { 1.0 } else { 0.0 })))
        };
        match name {
            "add" => bin_num(|a, b| a + b),
            "sub" => bin_num(|a, b| a - b),
            "mul" => bin_num(|a, b| a * b),
            "div" => bin_num(|a, b| a / b),
            "min" => bin_num(f64::min),
            "max" => bin_num(f64::max),
            "lt" => cmp(|a, b| a < b),
            "le" => cmp(|a, b| a <= b),
            "gt" => cmp(|a, b| a > b),
            "ge" => cmp(|a, b| a >= b),
            "eq" => {
                arity(2)?;
                Ok(Some(Value::Num(if args[0] == args[1] { 1.0 } else { 0.0 })))
            }
            "ne" => {
                arity(2)?;
                Ok(Some(Value::Num(if args[0] != args[1] { 1.0 } else { 0.0 })))
            }
            "not" => {
                arity(1)?;
                let b = args[0].truthy().map_err(|e| self.error(e))?;
                Ok(Some(Value::Num(if b { 0.0 } else { 1.0 })))
            }
            "and" => cmp(|a, b| a != 0.0 && b != 0.0),
            "or" => cmp(|a, b| a != 0.0 || b != 0.0),
            "len" => {
                arity(1)?;
                match &args[0] {
                    Value::List(items) => Ok(Some(Value::Num(items.len() as f64))),
                    other => Err(self.error(format!("'len' expects a list, got {other:?}"))),
                }
            }
            "nth" => {
                arity(2)?;
                let idx = args[1].num().map_err(|e| self.error(e))?;
                if !(idx >= 0.0 && idx.fract() == 0.0) {
                    return Err(self.error(format!(
                        "'nth' index must be a non-negative integer, got {idx}"
                    )));
                }
                let idx = idx as usize;
                match &args[0] {
                    Value::List(items) => items.get(idx).cloned().map(Some).ok_or_else(|| {
                        self.error(format!("'nth' index {idx} out of bounds ({})", items.len()))
                    }),
                    other => Err(self.error(format!("'nth' expects a list, got {other:?}"))),
                }
            }
            "concat" => {
                arity(2)?;
                match (&args[0], &args[1]) {
                    (Value::List(a), Value::List(b)) => {
                        let mut out = a.clone();
                        out.extend(b.iter().cloned());
                        Ok(Some(Value::List(out)))
                    }
                    (Value::Str(a), Value::Str(b)) => Ok(Some(Value::Str(format!("{a}{b}")))),
                    other => Err(self.error(format!(
                        "'concat' expects two lists or strings, got {other:?}"
                    ))),
                }
            }
            "insize" => {
                arity(1)?;
                Ok(Some(Value::Num(args[0].total_size() as f64)))
            }
            "file" => {
                arity(2)?;
                let path = match &args[0] {
                    Value::Str(s) => s.clone(),
                    other => {
                        return Err(
                            self.error(format!("'file' expects a path string, got {other:?}"))
                        )
                    }
                };
                let size = args[1].num().map_err(|e| self.error(e))? as u64;
                self.required.insert(path.clone());
                Ok(Some(Value::File {
                    path,
                    size,
                    producer: None,
                }))
            }
            "val" => {
                arity(1)?;
                match &args[0] {
                    Value::File {
                        producer: Some(id), ..
                    } => {
                        let key = self
                            .by_id
                            .get(id)
                            .ok_or_else(|| self.error("internal: unknown producer"))?;
                        let state = &self.memo[key];
                        if state.done {
                            Ok(Some(state.exit.clone()))
                        } else {
                            self.waiting_on.insert(*id);
                            Err(Stop::Blocked)
                        }
                    }
                    Value::File {
                        producer: None,
                        path,
                        ..
                    } => Err(self.error(format!(
                        "'val' on workflow input '{path}' (no producing task)"
                    ))),
                    other => {
                        Err(self.error(format!("'val' expects a produced file, got {other:?}")))
                    }
                }
            }
            _ => Ok(None),
        }
    }

    /// Element-wise task application: list arguments in *mapping* (plain)
    /// parameter positions zip into one instance per element, scalars
    /// broadcast, and lists bound to *aggregate* parameters (`[name]`)
    /// pass through whole.
    fn apply_task(&mut self, def: &TaskDef, args: &[Value]) -> Eval {
        if def.params.len() != args.len() {
            return Err(self.error(format!(
                "task '{}' expects {} arguments, got {}",
                def.name,
                def.params.len(),
                args.len()
            )));
        }
        let mut list_len: Option<usize> = None;
        for (param, v) in def.params.iter().zip(args) {
            if param.aggregate {
                continue;
            }
            if let Value::List(items) = v {
                match list_len {
                    None => list_len = Some(items.len()),
                    Some(l) if l == items.len() => {}
                    Some(l) => {
                        return Err(self.error(format!(
                            "task '{}' applied to lists of different lengths ({l} vs {})",
                            def.name,
                            items.len()
                        )))
                    }
                }
            }
        }
        match list_len {
            None => self.apply_task_instance(def, args),
            Some(n) => {
                let mut results = Vec::with_capacity(n);
                for i in 0..n {
                    let instance: Vec<Value> = def
                        .params
                        .iter()
                        .zip(args)
                        .map(|(param, v)| match v {
                            Value::List(items) if !param.aggregate => items[i].clone(),
                            other => other.clone(),
                        })
                        .collect();
                    results.push(self.apply_task_instance(def, &instance)?);
                }
                Ok(Value::List(results))
            }
        }
    }

    fn apply_task_instance(&mut self, def: &TaskDef, args: &[Value]) -> Eval {
        let key = format!(
            "{}({})",
            def.name,
            args.iter().map(Value::render).collect::<Vec<_>>().join(";")
        );
        if let Some(state) = self.memo.get(&key) {
            return Ok(state.result.clone());
        }

        let id = TaskId(self.next_task);
        self.next_task += 1;

        // Parameter environment for size/cpu/yield expressions.
        let penv: Vec<(String, Value)> = def
            .params
            .iter()
            .map(|p| p.name.clone())
            .zip(args.iter().cloned())
            .collect();

        // Render outputs.
        let mut outputs = Vec::with_capacity(def.outputs.len());
        for decl in &def.outputs {
            let path = render_template(&decl.template, &def.params, args);
            if let Some(owner) = self.promised_outputs.get(&path) {
                if owner != &key {
                    return Err(self.error(format!(
                        "output path collision: '{path}' produced by both {owner} and {key}"
                    )));
                }
            }
            self.promised_outputs.insert(path.clone(), key.clone());
            let size = self.eval_pure(&decl.size, &penv, &key)?;
            let size = size.num().map_err(|e| self.error(e))?.max(0.0) as u64;
            outputs.push(OutputSpec { path, size });
        }

        let cpu = self
            .eval_pure(&def.cpu, &penv, &key)?
            .num()
            .map_err(|e| self.error(e))?
            .max(0.0);

        let scratch_bytes = match &def.scratch {
            Some(e) => self
                .eval_pure(e, &penv, &key)?
                .num()
                .map_err(|err| self.error(err))?
                .max(0.0) as u64,
            None => 0,
        };

        // Simulated tool exit value (revealed at completion via val()).
        let exit = match &def.yields {
            Some(e) => self.eval_pure(e, &penv, &key)?,
            None => Value::Num(0.0),
        };

        let mut inputs = Vec::new();
        for v in args {
            v.collect_files(&mut inputs);
        }
        inputs.sort();
        inputs.dedup();

        let spec = TaskSpec {
            id,
            name: def.name.clone(),
            command: key.clone(),
            inputs,
            outputs: outputs.clone(),
            cost: TaskCost::new(cpu, def.threads, def.memory_mb).with_scratch(scratch_bytes),
        };

        let result = {
            let files: Vec<Value> = outputs
                .iter()
                .map(|o| Value::File {
                    path: o.path.clone(),
                    size: o.size,
                    producer: Some(id),
                })
                .collect();
            if files.len() == 1 {
                files.into_iter().next().expect("one output")
            } else {
                Value::List(files)
            }
        };

        self.memo.insert(
            key.clone(),
            TaskState {
                result: result.clone(),
                exit,
                done: false,
            },
        );
        self.by_id.insert(id, key);
        self.newly.push(spec);
        Ok(result)
    }

    /// Evaluates a pure expression (sizes, cpu, yield): only builtins and
    /// the parameter environment are in scope, plus `prob(p)`.
    fn eval_pure(&mut self, expr: &Expr, penv: &[(String, Value)], key: &str) -> Eval {
        match expr {
            Expr::Call { name, args } if name == "prob" => {
                if args.len() != 1 {
                    return Err(self.error("'prob' expects one argument"));
                }
                let p = self.eval_pure(&args[0], penv, key)?;
                let p = p.num().map_err(|e| self.error(e))?;
                let mut hasher = DefaultHasher::new();
                (self.seed, key, "prob").hash(&mut hasher);
                let draw = (hasher.finish() % 1_000_000) as f64 / 1_000_000.0;
                Ok(Value::Num(if draw < p { 1.0 } else { 0.0 }))
            }
            Expr::Call { name, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval_pure(a, penv, key)?);
                }
                match self.builtin(name, &values)? {
                    Some(v) => Ok(v),
                    None => Err(self.error(format!(
                        "only builtins may appear in task attribute expressions, found '{name}'"
                    ))),
                }
            }
            Expr::If {
                cond,
                then,
                otherwise,
            } => {
                let c = self.eval_pure(cond, penv, key)?;
                if c.truthy().map_err(|e| self.error(e))? {
                    self.eval_pure(then, penv, key)
                } else {
                    self.eval_pure(otherwise, penv, key)
                }
            }
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Var(name) => penv
                .iter()
                .rev()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| self.error(format!("unbound parameter '{name}' in task attribute"))),
            Expr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(self.eval_pure(e, penv, key)?);
                }
                Ok(Value::List(out))
            }
            Expr::LetIn { name, value, body } => {
                let v = self.eval_pure(value, penv, key)?;
                let mut inner = penv.to_vec();
                inner.push((name.clone(), v));
                self.eval_pure(body, &inner, key)
            }
        }
    }
}

/// Substitutes `{0}`, `{1}`, … and `{param}` in an output template.
fn render_template(template: &str, params: &[super::ast::Param], args: &[Value]) -> String {
    let mut out = template.to_string();
    for (i, (param, value)) in params.iter().zip(args.iter()).enumerate() {
        let rendered = sanitize(&value.render());
        out = out.replace(&format!("{{{i}}}"), &rendered);
        out = out.replace(&format!("{{{}}}", param.name), &rendered);
    }
    out
}

/// Keeps rendered values path-friendly (file arguments render as their
/// path; embedded slashes would explode the namespace).
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c == '/' || c == ',' { '_' } else { c })
        .collect()
}

impl WorkflowSource for CuneiformWorkflow {
    fn name(&self) -> &str {
        &self.name
    }

    fn language(&self) -> &'static str {
        "cuneiform"
    }

    fn initial_tasks(&mut self) -> Result<Vec<TaskSpec>, LangError> {
        self.evaluate_round()
    }

    fn on_task_completed(&mut self, task: TaskId) -> Result<Vec<TaskSpec>, LangError> {
        self.mark_done(task)?;
        if self.settled && !self.waiting_on.contains(&task) {
            return Ok(Vec::new());
        }
        self.evaluate_round()
    }

    fn is_static(&self) -> bool {
        false
    }

    fn required_inputs(&self) -> Vec<String> {
        self.required.iter().cloned().collect()
    }

    fn is_complete(&self) -> bool {
        self.complete
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn parse(src: &str) -> CuneiformWorkflow {
        CuneiformWorkflow::parse("test", src, 42).expect("parse")
    }

    #[test]
    fn linear_pipeline_unfolds_eagerly() {
        let mut wf = parse(
            r#"
            deftask a( out("a.dat", 100) : x ) cpu 1;
            deftask b( out("b.dat", 100) : x ) cpu 1;
            let input = file("/in.dat", 50);
            target b(a(input));
            "#,
        );
        let tasks = wf.initial_tasks().unwrap();
        // Both stages discovered immediately: file promises don't block.
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].name, "a");
        assert_eq!(tasks[1].name, "b");
        assert_eq!(tasks[1].inputs, vec!["a.dat".to_string()]);
        // No val()/if gating: the whole pipeline is revealed immediately.
        assert!(wf.is_complete());
        assert!(wf.on_task_completed(tasks[0].id).unwrap().is_empty());
        assert!(wf.on_task_completed(tasks[1].id).unwrap().is_empty());
        assert_eq!(wf.required_inputs(), vec!["/in.dat".to_string()]);
    }

    #[test]
    fn list_application_maps_elementwise() {
        let mut wf = parse(
            r#"
            deftask align( out("aln_{0}.sam", mul(insize(r), 2)) : r ref ) cpu 10 threads 4;
            let ref = file("/ref.fa", 1000);
            let samples = [file("/s0.fq", 100), file("/s1.fq", 200), file("/s2.fq", 300)];
            target align(samples, ref);
            "#,
        );
        let tasks = wf.initial_tasks().unwrap();
        assert_eq!(tasks.len(), 3);
        // Outputs templated per-instance; sizes follow insize(r).
        assert_eq!(tasks[0].outputs[0].path, "aln__s0.fq.sam");
        assert_eq!(tasks[0].outputs[0].size, 200);
        assert_eq!(tasks[2].outputs[0].size, 600);
        // The broadcast ref is an input of every instance.
        for t in &tasks {
            assert!(t.inputs.contains(&"/ref.fa".to_string()));
        }
        assert_eq!(tasks[0].cost.threads, 4);
    }

    #[test]
    fn mismatched_list_lengths_rejected() {
        let mut wf = parse(
            r#"
            deftask t( out("o_{0}_{1}", 1) : a b ) cpu 1;
            target t([file("/a", 1), file("/b", 1)], [file("/c", 1)]);
            "#,
        );
        assert!(wf.initial_tasks().is_err());
    }

    #[test]
    fn recursion_with_val_discovers_incrementally() {
        // The k-means shape from the paper §3.3: iterate until the tool
        // reports round >= 3.
        let mut wf = parse(
            r#"
            deftask step( out("cents_{1}.dat", 1000) : c i ) cpu 5 yield add(i, 1);
            defun iterate(c, i) =
              let next = step(c, i);
              if lt(val(next), 3) then iterate(next, val(next)) else next;
            let seed = file("/cents0.dat", 1000);
            target iterate(seed, 0);
            "#,
        );
        let t0 = wf.initial_tasks().unwrap();
        assert_eq!(t0.len(), 1, "only the first step is known");
        let t1 = wf.on_task_completed(t0[0].id).unwrap();
        assert_eq!(t1.len(), 1, "completion reveals the next iteration");
        assert!(!wf.is_complete());
        let t2 = wf.on_task_completed(t1[0].id).unwrap();
        assert_eq!(t2.len(), 1);
        let t3 = wf.on_task_completed(t2[0].id).unwrap();
        assert!(t3.is_empty(), "val(next)=3 stops the recursion");
        assert!(wf.is_complete());
        assert_eq!(wf.memo.len(), 3, "three tasks submitted");
    }

    #[test]
    fn conditional_chooses_branch_tasks_lazily() {
        let mut wf = parse(
            r#"
            deftask probe( out("p.dat", 10) : x ) cpu 1 yield 7;
            deftask big( out("big.dat", 10) : x ) cpu 100;
            deftask small( out("small.dat", 10) : x ) cpu 1;
            let input = file("/in", 5);
            let p = probe(input);
            target if gt(val(p), 5) then big(p) else small(p);
            "#,
        );
        let t0 = wf.initial_tasks().unwrap();
        assert_eq!(t0.len(), 1, "branch tasks must not be submitted yet");
        let t1 = wf.on_task_completed(t0[0].id).unwrap();
        assert_eq!(t1.len(), 1);
        assert_eq!(t1[0].name, "big", "yield 7 > 5 selects the big branch");
    }

    #[test]
    fn memoization_deduplicates_identical_applications() {
        let mut wf = parse(
            r#"
            deftask t( out("o.dat", 1) : x ) cpu 1;
            let input = file("/in", 1);
            let a = t(input);
            let b = t(input);
            target [a, b];
            "#,
        );
        let tasks = wf.initial_tasks().unwrap();
        assert_eq!(tasks.len(), 1, "same application evaluated once");
    }

    #[test]
    fn output_collision_between_distinct_tasks_rejected() {
        let mut wf = parse(
            r#"
            deftask t( out("same.dat", 1) : x ) cpu 1;
            target [t(file("/a", 1)), t(file("/b", 1))];
            "#,
        );
        let err = wf.initial_tasks().unwrap_err();
        assert!(err.message.contains("collision"), "{}", err.message);
    }

    #[test]
    fn prob_is_deterministic_per_seed() {
        let src = r#"
            deftask flip( out("f_{0}.dat", 1) : x ) cpu 1 yield prob(0.5);
            target flip(file("/in", 1));
        "#;
        let mut a = CuneiformWorkflow::parse("t", src, 1).unwrap();
        let mut b = CuneiformWorkflow::parse("t", src, 1).unwrap();
        let ta = a.initial_tasks().unwrap();
        let tb = b.initial_tasks().unwrap();
        assert_eq!(ta, tb);
    }

    #[test]
    fn arithmetic_and_list_builtins() {
        let mut wf = parse(
            r#"
            deftask t( out("o_{0}.dat", 1) : n ) cpu 1;
            let xs = [1, 2, 3];
            target t(add(mul(nth(xs, 2), 10), len(xs)));
            "#,
        );
        let tasks = wf.initial_tasks().unwrap();
        assert_eq!(tasks[0].outputs[0].path, "o_33.dat");
    }

    fn nth_error(index: &str) -> String {
        let mut wf = parse(&format!(
            r#"deftask t( out("o_{{0}}.dat", 1) : n ) cpu 1;
               target t(nth([5, 6, 7], {index}));"#
        ));
        wf.initial_tasks().unwrap_err().message
    }

    #[test]
    fn nth_rejects_a_negative_index() {
        let err = nth_error("-1");
        assert!(err.contains("non-negative integer, got -1"), "{err}");
    }

    #[test]
    fn nth_rejects_a_fractional_index() {
        let err = nth_error("1.5");
        assert!(err.contains("non-negative integer, got 1.5"), "{err}");
    }

    #[test]
    fn nth_rejects_a_nan_index() {
        let err = nth_error("div(0, 0)");
        assert!(err.contains("non-negative integer, got NaN"), "{err}");
    }

    #[test]
    fn aggregate_parameter_consumes_whole_list() {
        let mut wf = parse(
            r#"
            deftask sort( out("sorted_{0}.bam", insize(aln)) : aln ) cpu 1;
            deftask varscan( out("vars.vcf", 100) : [alns] ) cpu insize(alns);
            let reads = [file("/r0", 100), file("/r1", 200)];
            target varscan(sort(reads));
            "#,
        );
        let tasks = wf.initial_tasks().unwrap();
        // Two sorts (mapped) + ONE varscan over both sorted files.
        assert_eq!(tasks.len(), 3);
        let varscan = tasks.iter().find(|t| t.name == "varscan").unwrap();
        assert_eq!(varscan.inputs.len(), 2);
        assert_eq!(varscan.cost.cpu_seconds, 300.0, "insize over the list");
    }

    #[test]
    fn aggregate_and_mapped_params_mix() {
        let mut wf = parse(
            r#"
            deftask merge( out("m_{0}.dat", 1) : tag [items] ) cpu 1;
            let items = [file("/a", 1), file("/b", 1)];
            target merge(["x", "y"], items);
            "#,
        );
        // `tag` maps over ["x","y"]; `items` broadcast as a whole list.
        let tasks = wf.initial_tasks().unwrap();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].outputs[0].path, "m_x.dat");
        assert_eq!(tasks[0].inputs.len(), 2);
    }

    #[test]
    fn unknown_identifier_is_an_error() {
        let mut wf = parse("target nope(1);");
        assert!(wf.initial_tasks().is_err());
    }

    /// A `defun` that recurses without a `val()` guard stops at the depth
    /// budget with an error, on the test harness's own thread.
    #[test]
    fn runaway_recursion_is_an_error() {
        let mut wf = parse("defun f(x) = f(add(x, 1)); target f(0);");
        let err = wf.initial_tasks().unwrap_err();
        assert!(err.message.contains("val() guard"), "{}", err.message);
    }

    /// An expression at the parser's 128-level limit evaluates.
    #[test]
    fn expression_at_the_nesting_limit_evaluates() {
        let levels = 127;
        let src = format!(
            "defun g(x) = x; target {}1{};",
            "g(".repeat(levels),
            ")".repeat(levels)
        );
        let mut wf = parse(&src);
        assert!(wf.initial_tasks().unwrap().is_empty());
        assert!(wf.is_complete());
    }

    /// The deepest round the budget accepts: a recursion that ends exactly
    /// at `MAX_EVAL_DEPTH` in a task whose `cpu` expression is at the
    /// parser's nesting limit (evaluated below the deepest `eval`). It
    /// must fit the test harness's thread; one level more is an error.
    #[test]
    fn deepest_accepted_round_fits_a_test_thread() {
        let cpu = format!("{}1{}", "add(1, ".repeat(127), ")".repeat(127));
        let program = |n: usize| {
            format!(
                r#"
                deftask t( out("t.dat", 1) : x ) cpu {cpu};
                defun f(n) = if gt(n, 0) then f(sub(n, 1)) else t(n);
                target f({n});
                "#
            )
        };
        // Level k's body sits at depth 2k; the base case's `t(n)` argument
        // at 2n + 4.
        let deepest = (MAX_EVAL_DEPTH - 4) / 2;
        let tasks = parse(&program(deepest)).initial_tasks().unwrap();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].cost.cpu_seconds, 128.0);
        let err = parse(&program(deepest + 1)).initial_tasks().unwrap_err();
        assert!(err.message.contains("val() guard"), "{}", err.message);
    }

    #[test]
    fn val_on_workflow_input_is_an_error() {
        let mut wf = parse(r#"target val(file("/in", 1));"#);
        assert!(wf.initial_tasks().is_err());
    }

    #[test]
    fn doc_example_compiles() {
        // Mirrors the module-level doc example.
        let src = r#"
            deftask align( out("aln_{0}.sam", mul(insize(reads), 2)) : reads ref )
                cpu mul(insize(reads), 0.000001) threads 8 mem 4000;
            let ref = file("/data/genome.fa", 3000000);
            let samples = [file("/data/s0.fq", 1000000), file("/data/s1.fq", 1200000)];
            target align(samples, ref);
        "#;
        let mut wf = CuneiformWorkflow::parse("demo", src, 7).unwrap();
        let tasks = wf.initial_tasks().unwrap();
        assert_eq!(tasks.len(), 2);
        assert!((tasks[0].cost.cpu_seconds - 1.0).abs() < 1e-9);
        assert_eq!(tasks[0].cost.memory_mb, 4000);
    }

    /// Generator decisions read from a proptest byte vector; every choice
    /// past its end is 0.
    struct Choices(std::vec::IntoIter<u8>);

    impl Choices {
        fn pick(&mut self, n: usize) -> usize {
            self.0.next().map_or(0, |b| usize::from(b) % n)
        }
    }

    /// Random programs for the wait-set oracle: parallel branches over
    /// mapped inputs, each a chain of mapped (`work`) and `[aggregate]`
    /// (`fold`) stages, `val()`-guarded `if`s on `prob()` yields, and a
    /// k-means-shaped `defun` recursion. Tags keep every output unique.
    fn oracle_program(ch: &mut Choices) -> String {
        fn chain(ch: &mut Choices, cur: String, depth: usize, tag: &mut usize) -> String {
            (0..=ch.pick(2)).fold(cur, |cur, _| stage(ch, cur, depth, tag))
        }
        fn stage(ch: &mut Choices, cur: String, depth: usize, tag: &mut usize) -> String {
            *tag += 1;
            let t = *tag;
            match ch.pick(if depth < 2 { 4 } else { 2 }) {
                0 => format!("work({cur}, \"t{t}\")"),
                1 => format!("fold({cur}, \"t{t}\")"),
                2 => {
                    let guard = ["probe", "fold"][ch.pick(2)];
                    let then = chain(ch, format!("v{t}"), depth + 1, tag);
                    let otherwise = chain(ch, format!("v{t}"), depth + 1, tag);
                    format!(
                        "(let v{t} = {cur}; let p{t} = {guard}(v{t}, \"g{t}\"); \
                         if gt(val(p{t}), 0) then {then} else {otherwise})"
                    )
                }
                _ => format!("kmeans({cur}, file(\"/c/{t}\", 10), 0, \"t{t}\")"),
            }
        }

        let mut src = format!(
            r#"
            deftask work( out("/w/{{1}}_{{0}}.dat", insize(x)) : x tag ) cpu 1;
            deftask fold( out("/f/{{1}}.dat", insize(xs)) : [xs] tag ) cpu 1 yield prob(0.5);
            deftask probe( out("/p/{{1}}.dat", 10) : [x] tag ) cpu 1 yield prob(0.5);
            deftask assign( out("/a/{{2}}_{{3}}_{{0}}.dat", 10) : pts [c] tag i ) cpu 1;
            deftask update( out("/u/{{1}}_{{2}}.dat", 10) : [a] tag i ) cpu 1
              yield add(i, prob(0.5));
            defun kmeans(pts, c, i, tag) =
              let a = assign(pts, c, tag, i);
              let u = update(a, tag, i);
              if lt(val(u), {limit}) then kmeans(pts, u, add(i, 1), tag) else u;
            "#,
            limit = 1 + ch.pick(3)
        );
        let mut tag = 0;
        let mut branches = Vec::new();
        for b in 0..=ch.pick(3) {
            let inputs: Vec<String> = (0..=ch.pick(3))
                .map(|i| format!("file(\"/in/{b}_{i}\", {})", 100 * (i + 1)))
                .collect();
            let body = chain(ch, format!("[{}]", inputs.join(", ")), 0, &mut tag);
            // A top-level `let` that blocks stops the later ones; a target
            // list element that blocks does not.
            if ch.pick(2) == 0 {
                src.push_str(&format!("let b{b} = {body};\n"));
                branches.push(format!("b{b}"));
            } else {
                branches.push(body);
            }
        }
        src.push_str(&format!("target [{}];\n", branches.join(", ")));
        src
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The wait-set gate in `on_task_completed` hands out exactly
        /// what re-evaluating from scratch after every completion does.
        #[test]
        fn wait_set_gate_matches_evaluating_every_completion(
            shape in proptest::collection::vec(any::<u8>(), 0..48),
            order in proptest::collection::vec(any::<u8>(), 0..256),
            seed in 0u64..1_000,
        ) {
            let src = oracle_program(&mut Choices(shape.into_iter()));
            let mut gated = CuneiformWorkflow::parse("oracle", &src, seed).expect("parse");
            let mut oracle = CuneiformWorkflow::parse("oracle", &src, seed).expect("parse");
            let mut order = Choices(order.into_iter());
            let mut found = gated.initial_tasks().map_err(|e| e.message);
            let mut expected = oracle.evaluate_round().map_err(|e| e.message);
            let mut pending = Vec::new();
            loop {
                prop_assert_eq!(&found, &expected, "{}", src);
                prop_assert_eq!(gated.is_complete(), oracle.is_complete());
                prop_assert_eq!(gated.memo.len(), oracle.memo.len());
                let Ok(tasks) = found else { break };
                pending.extend(tasks.iter().map(|t| t.id));
                if pending.is_empty() {
                    break;
                }
                let done = pending.remove(order.pick(pending.len()));
                found = gated.on_task_completed(done).map_err(|e| e.message);
                oracle.mark_done(done).expect("known task");
                expected = oracle.evaluate_round().map_err(|e| e.message);
            }
            prop_assert!(gated.is_complete(), "every task ran:\n{}", src);
        }
    }
}
