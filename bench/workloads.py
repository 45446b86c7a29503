"""The four workloads.  Each is a fixed batch of verdicts built from the
seed; a verdict is one answer a user asks for, timed around the calls into
deplogic and checked afterwards against `inputs` and `oracle`."""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import subprocess
import sys

import inputs as I
import oracle as O
import proofgen


class Verdict:
    def __init__(self, label, run, check, traced=None):
        self.label = label
        self.run = run  # () -> result, the timed call
        self.check = check  # result -> None, or what is wrong
        self.traced = traced or run  # the same verdict, reaching more layers by name


def _expect(want):
    def check(got):
        return None if got == want else f"expected {want}, got {got}"

    return check


class Workload:
    name = ""

    def __init__(self, dl, seed: int, tiny: bool, root: str, workdir: str):
        self.dl, self.seed, self.tiny = dl, seed, tiny
        self.root, self.workdir = root, workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.verdicts: list[Verdict] = []
        self.tracer = None  # set while the traced rounds run
        self.counted: set = set()  # verdicts whose choice points are counted

    def parse_inputs(self) -> None:
        """The deplogic parsing that belongs to set-up; repeated under the
        tracer to time the surface layer on this workload's inputs."""

    def extra_metrics(self) -> dict:
        return {}


# ---------------------------------------------------------------------------


class TeamSearch(Workload):
    name = "team_search"
    # (family, spelling, model size, closed-form truth)
    SENTENCES = [
        ("injection", "right", 3, True), ("injection", "right", 3, False),
        ("injection", "right", 4, True), ("injection", "right", 4, False),
        ("injection", "right", 5, True), ("injection", "right", 5, False),
        ("injection", "flat", 3, True), ("injection", "flat", 3, False),
        ("example3", "right", 4, False), ("example3", "flat", 3, False),
        ("example3", "flat", 4, False),
        ("theta1", "right", 3, False), ("theta1", "right", 4, False),
        ("theta1", "right", 5, False), ("theta1", "flat", 3, False),
        ("theta1", "flat", 4, False),
        ("two_universal", "right", 3, True), ("two_universal", "right", 3, False),
        ("two_universal", "right", 4, False), ("two_universal", "flat", 3, True),
    ]
    # Pairs per template.  With the sentences, the cheap non-equivalent
    # pairs sit below the median and the eight and-reassociate pairs (3-5 ms)
    # around it, so that the median verdict falls inside a block of one kind.
    PAIRS = {"or_commute": 2, "and_reassociate": 8, "or_reassociate": 1, "and_commute": 2,
             "mixed_commute": 1, "or_idempotent": 3, "or_weakens": 3, "and_or": 3}
    TINY = [("injection", "right", 3, True), ("injection", "flat", 3, False),
            ("theta1", "right", 3, False), ("two_universal", "right", 3, True)]

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng
        self.sentences = []
        for fam, spelling, k, target in (self.TINY if self.tiny else self.SENTENCES):
            # The unpruned search of a flat two-universal sentence costs
            # seconds or microseconds depending on R; a complete R keeps
            # its cost the same for every seed.
            dense = fam == "two_universal" and spelling == "flat"
            m = I.family_model(rng, fam, k, target, dense)
            assert I.truth(fam, m) == target
            self.sentences.append((fam, spelling, k, m, I.family(fam, spelling), target))
        self.pairs = [I.equivalence_pair(rng, t) for t in I.PAIR_TEMPLATES
                      for _ in range(1 if self.tiny else self.PAIRS[t])]
        self.parse_inputs()
        dl = self.dl
        for i, (fam, spelling, k, _, _, target) in enumerate(self.sentences):
            model, phi = self.parsed[i]
            self.verdicts.append(Verdict(
                f"sentence {fam}/{spelling} k={k}",
                lambda model=model, phi=phi: dl.sentence_true(model, phi),
                _expect(target)))
        for j, (left, right, equivalent) in enumerate(self.pairs):
            f1, f2 = self.parsed_pairs[j]
            self.verdicts.append(Verdict(
                f"equiv {O.text(left)} / {O.text(right)}",
                lambda f1=f1, f2=f2: dl.equiv_on_small_models(f1, f2, 2),
                lambda r, pair=(left, right, equivalent): _check_equivalence(r, *pair)))

    def parse_inputs(self):
        dl = self.dl
        self.parsed = []
        for _, _, _, m, phi, _ in self.sentences:
            voc, model = dl.parse_model(I.model_text(m))
            self.parsed.append((model, dl.parse_formula(O.text(phi), voc)))
        voc = dl.parse_vocabulary(I.VOCAB_TEXT)
        self.parsed_pairs = [(dl.parse_formula(O.text(a), voc), dl.parse_formula(O.text(b), voc))
                             for a, b, _ in self.pairs]

    def extra_metrics(self):
        """Choice points: the smallest budget under which each sentence in
        the counted subset (size 3, and size 4 right-nested) reaches its
        verdict, found by bisection."""
        dl = self.dl
        total = 0
        for i, (fam, spelling, k, *_rest) in enumerate(self.sentences):
            if k > 4 or (k == 4 and spelling == "flat"):
                continue
            model, phi = self.parsed[i]

            def reached(points):
                try:
                    dl.sentence_true(model, phi, dl.SearchBudget(points))
                    return True
                except dl.BudgetExceededError:
                    return False

            hi = 1
            while not reached(hi):
                hi *= 2
            lo = hi // 2
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if reached(mid):
                    hi = mid
                else:
                    lo = mid
            total += hi
            self.counted.add(i)
        return {"semantics.choice_points": total}

    def self_test_mutant(self):
        first = self.verdicts[0]
        return Verdict(first.label, first.run, _expect(not self.sentences[0][-1]))


def _check_equivalence(result, left, right, equivalent):
    if result.equivalent != equivalent:
        return f"expected equivalent={equivalent}, got {result.equivalent}"
    if equivalent:
        return None
    ce = result.counterexample
    m = O.Structure(ce.model.size, {n: set(ts) for n, ts in ce.model.relations.items()})
    rows = [row.as_dict() for row in ce.team.rows]
    return _recheck(m, rows, left, right, ce.left_value, ce.right_value)


def _recheck(m, rows, left, right, left_value, right_value):
    mine = (O.team_holds(m, rows, left), O.team_holds(m, rows, right))
    if mine != (left_value, right_value) or left_value == right_value:
        return f"counterexample does not re-check: reported {left_value, right_value}, oracle {mine}"
    return None


# ---------------------------------------------------------------------------


def _shape(phi, dl):
    """(quantifiers, dep atoms) of a deplogic formula."""
    quantifiers = deps = 0
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, (dl.Forall, dl.Exists)):
            quantifiers += 1
        elif isinstance(node, dl.Dep):
            deps += 1
        for attr in ("left", "right", "body"):
            child = getattr(node, attr, None)
            if isinstance(child, dl.Formula):
                stack.append(child)
    return quantifiers, deps


def _existentials(f) -> int:
    if f[0] in ("and", "or"):
        return _existentials(f[1]) + _existentials(f[2])
    if f[0] in ("exists", "forall"):
        return (f[0] == "exists") + _existentials(f[2])
    return 0


class ApproxChain(Workload):
    name = "approx_chain"
    # (family, spelling, model size, chain length, closed-form truth of the sentence)
    # No chain costs more than about a tenth of the round (60 ms), so that no
    # single large Phi^n evaluation carries it, and about a third cost 4 to
    # 12 ms, so that the median verdict falls inside that cluster whatever
    # the seed.
    CHAINS = [
        ("injection", "right", 3, 5, True), ("injection", "right", 3, 5, False),
        ("injection", "right", 4, 4, True), ("injection", "right", 4, 4, False),
        ("injection", "right", 2, 3, True), ("injection", "right", 2, 3, False),
        ("example3", "right", 3, 5, False), ("example3", "right", 3, 5, False),
        ("example3", "right", 3, 5, False), ("example3", "right", 4, 4, False),
        ("example3", "flat", 2, 3, False),
        ("injection", "flat", 3, 4, True), ("injection", "flat", 3, 4, False),
        ("injection", "flat", 3, 3, True), ("injection", "flat", 3, 3, False),
        ("injection", "flat", 3, 3, True), ("injection", "flat", 3, 3, False),
        ("theta1", "right", 3, 5, False), ("theta1", "right", 3, 4, False),
        ("theta1", "right", 2, 3, False), ("theta1", "flat", 3, 4, False),
        ("theta1", "flat", 2, 2, False),
        ("two_universal", "right", 2, 4, True), ("two_universal", "right", 2, 4, False),
        ("two_universal", "right", 3, 3, False), ("two_universal", "flat", 2, 4, True),
        ("theta1_or_all", "right", 2, 3, True), ("theta1_or_all", "right", 2, 3, False),
        ("theta1_or_all", "right", 3, 2, True), ("theta1_or_all", "right", 3, 2, False),
        ("unnest", "right", 3, 4, True), ("unnest", "right", 3, 4, False),
    ]
    TINY = [("injection", "right", 2, 2, True), ("theta1", "right", 2, 2, False),
            ("unnest", "right", 2, 2, True)]

    def __init__(self, *args):
        super().__init__(*args)
        self.chains = []
        for fam, spelling, k, n, target in (self.TINY if self.tiny else self.CHAINS):
            m = I.family_model(self.rng, fam, k, target)
            assert I.truth(fam, m) == target
            self.chains.append((fam, spelling, k, n, m, I.family(fam, spelling)))
        self.parse_inputs()
        dl = self.dl
        for i, (fam, spelling, k, n, m, phi) in enumerate(self.chains):
            model, formula = self.parsed[i]

            def run(model=model, formula=formula, n=n):
                nf = dl.to_normal_form(formula)
                return nf, dl.approximation_chain_check(nf, model, n), dl.build_omega(nf, n)

            def traced(model=model, formula=formula, n=n, phi=phi):
                nf = self.staged_normal_form(formula)
                if self.tracer is not None:
                    self.tracer.counters["normalform.added_existentials"] += (
                        len(nf.existentials) - _existentials(phi))
                return nf, dl.approximation_chain_check(nf, model, n), dl.build_omega(nf, n)

            self.verdicts.append(Verdict(
                f"chain {fam}/{spelling} k={k} n={n}", run,
                lambda r, fam=fam, m=m, n=n: self.check_chain(r, fam, m, n), traced))

    def parse_inputs(self):
        self.parsed = []
        for *_, m, phi in self.chains:
            voc, model = self.dl.parse_model(I.model_text(m))
            self.parsed.append((model, self.dl.parse_formula(O.text(phi), voc)))

    def self_test_mutant(self):
        fam, _, _, n, m, _ = self.chains[0]
        other = "example3" if fam == "injection" else "injection"
        first = self.verdicts[0]
        return Verdict(first.label, first.run, lambda r: self.check_chain(r, other, m, n))

    def staged_normal_form(self, phi):
        """to_normal_form through the four public stage functions, so that
        each stage gets its own span."""
        dl = self.dl
        clean = dl.preprocess(phi)
        try:
            return dl.match_normal_form(clean)
        except dl.ShapeError:
            pass
        prenex = dl.to_prenex(clean)
        prefix, matrix = [], prenex
        while isinstance(matrix, (dl.Forall, dl.Exists)):
            prefix.append((type(matrix), matrix.var))
            matrix = matrix.body
        body = dl.hoist_dep_atoms(matrix)
        for kind, var in reversed(prefix):
            body = kind(var, body)
        return dl.pull_existentials_left(body)

    def check_chain(self, result, fam, m, n):
        nf, values, omega = result
        if len(values) != n:
            return f"expected {n} values, got {values}"
        closed = [I.approximation_truth(fam, m, i) for i in range(1, n + 1)]
        if closed[0] is not None and values != closed:
            return f"expected chain {closed}, got {values}"
        if any(not a and b for a, b in zip(values, values[1:])):
            return f"chain {values} increases"
        truth = I.truth(fam, m)
        if truth and not all(values):
            return f"sentence is true but chain is {values}"
        unrolled = m.size ** I.UNIVERSALS[fam]
        if unrolled <= n and values[unrolled - 1] != truth:
            return f"approximation {unrolled} is {values[unrolled - 1]}, sentence is {truth}"
        blocks = len(nf.universals) + len(nf.existentials)
        if _shape(omega, self.dl) != (n * blocks, len(nf.dep_atoms)):
            return f"omega_{n} has shape {_shape(omega, self.dl)}"
        return None


# ---------------------------------------------------------------------------


class ProofCheck(Workload):
    name = "proof_check"
    # Five scripts of 1000 steps in the middle: the median verdict is one of
    # them whatever the seed's gadget mix makes of each.
    LENGTHS = [200, 300, 400, 600, 1000, 1000, 1000, 1000, 1000, 1600, 2000, 2400, 2600]
    MUTANTS = [0, 1, 0, 3, 0, 2]
    TINY_LENGTHS = [60, 90]

    def __init__(self, *args):
        super().__init__(*args)
        lengths = self.TINY_LENGTHS if self.tiny else self.LENGTHS
        self.scripts = [proofgen.script(self.rng, length, self.MUTANTS[i % len(self.MUTANTS)])
                        for i, length in enumerate(lengths)]
        self.voc = self.dl.parse_vocabulary(I.VOCAB_TEXT)
        dl = self.dl
        for s in self.scripts:
            def run(s=s):
                proof = dl.parse_proof(s.text, self.voc)
                return dl.check_proof(proof, dl.parse_hypotheses(s.hypotheses, self.voc))

            self.verdicts.append(Verdict(
                f"proof of {sum(s.rules.values())} steps, failing {s.failing}", run,
                lambda report, s=s: _check_report(report, s.failing)))

    def self_test_mutant(self):
        first, s = self.verdicts[0], self.scripts[0]
        return Verdict(first.label, first.run, lambda r: _check_report(r, s.failing + [1]))


def _check_report(report, failing):
    got = sorted({index for index, _ in report.failures})
    if report.accepted != (not failing) or got != sorted(failing):
        return f"expected failures at {sorted(failing)}, got {report.verdict} at {got}"
    return None


# ---------------------------------------------------------------------------


class CliBatch(Workload):
    name = "cli_batch"
    COMMANDS = ["parse", "eval", "eval_team", "normalize", "approx", "check_proof",
                "equiv", "chain"]

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng
        self.env = {k: v for k, v in os.environ.items() if k != "DEPLOGIC_BUDGET"}
        self.env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.vocab = self.write("vocab.txt", I.VOCAB_TEXT)
        self.models = [I.family_model(rng, "injection", 3, True),
                       I.family_model(rng, "injection", 3, False),
                       I.family_model(rng, "two_universal", 2, False)]
        self.model_files = [self.write(f"model{i}.txt", I.model_text(m))
                            for i, m in enumerate(self.models)]
        self.check_cache: dict = {}
        self.peak_rss_kb = 0
        for copy in range(1 if self.tiny else 2):
            for command in self.COMMANDS:
                argv, check = getattr(self, "make_" + command)(rng, copy)
                self.verdicts.append(Verdict(
                    f"cli {' '.join(argv)[:120]}",
                    lambda argv=argv: self.spawn(argv), check,
                    lambda argv=argv: self.in_process(argv)))

    def self_test_mutant(self):
        first = self.verdicts[0]
        return Verdict(first.label, first.run, _exit_check(1, "false"))

    def write(self, name, content):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as out:
            out.write(content)
        return path

    def spawn(self, argv):
        """One CLI process; returns (exit code, stdout, stderr)."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen([sys.executable, "-m", "deplogic.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.root, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path) as out, open(err_path) as err:
            return proc.returncode, out.read(), err.read()

    def in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["deplogic.cli"].main(argv)
        return code, out.getvalue(), err.getvalue()

    def cached(self, key, compute):
        if key not in self.check_cache:
            self.check_cache[key] = compute()
        return self.check_cache[key]

    # Each maker returns the argument vector and the check of its result.

    def make_parse(self, rng, copy):
        fam = rng.choice(["injection", "theta1", "two_universal"])
        phi = I.family(fam, rng.choice(["right", "flat"]))
        argv = ["parse", "--vocab", self.vocab, "--formula", O.text(phi)]
        if copy:
            argv.append("--ascii")

        def check(result):
            code, out, err = result
            if code != 0:
                return f"exit {code}: {err.strip()[-200:]}"
            back = O.parse(out, set(I.VOCABULARY), set(I.FUNCTIONS), set(I.CONSTANTS))
            return None if back == phi else f"printed formula re-parses differently: {out!r}"

        return argv, check

    def make_eval(self, rng, copy):
        i = copy % 2
        fam = "injection"
        phi = I.family(fam, rng.choice(["right", "flat"]))
        want = I.truth(fam, self.models[i])
        argv = ["eval", "--model", self.model_files[i], "--formula", O.text(phi)]
        return argv, _exit_check(0 if want else 1, "true" if want else "false")

    def make_eval_team(self, rng, copy):
        left, right, _ = I.equivalence_pair(rng, rng.choice(I.PAIR_TEMPLATES))
        phi = rng.choice([left, right])
        variables = sorted({t[1] for t in _free_terms(phi)})
        m = self.models[copy % 2]
        every = [dict(zip(variables, values)) for values in
                 itertools.product(range(m.size), repeat=len(variables))]
        rows = rng.sample(every, rng.randint(2, min(6, len(every))))
        team = "vars " + " ".join(variables) + "\n" + "".join(
            " ".join(str(r[v]) for v in variables) + "\n" for r in rows)
        team_file = self.write(f"team{copy}.txt", team)
        want = O.team_holds(m, rows, phi)
        argv = ["eval", "--model", self.model_files[copy % 2], "--team", team_file,
                "--formula", O.text(phi)]
        return argv, _exit_check(0 if want else 1, "true" if want else "false")

    def make_normalize(self, rng, copy):
        fam = ["theta1_or_all", "unnest"][copy % 2]
        phi = I.family(fam, "right")
        argv = ["normalize", "--vocab", self.vocab, "--ascii", "--formula", O.text(phi)]

        def check(result):
            code, out, err = result
            if code != 0:
                return f"exit {code}: {err.strip()[-200:]}"

            def verify():
                nf = O.parse(out, set(I.VOCABULARY), set(I.FUNCTIONS), set(I.CONSTANTS))
                for m in self.models:
                    if O.normal_form_true(m, nf) != I.truth(fam, m):
                        return f"normal form {out.strip()} changes the truth value on a model"
                return None

            return self.cached(("normalize", out), verify)

        return argv, check

    def make_approx(self, rng, copy):
        fam = ["injection", "example3"][copy % 2]
        n = 2 + copy % 2
        phi = I.family(fam, "right")
        argv = ["approx", "--vocab", self.vocab, "--ascii", "--n", str(n),
                "--formula", O.text(phi)]

        def check(result):
            code, out, err = result
            if code != 0:
                return f"exit {code}: {err.strip()[-200:]}"

            def verify():
                approx = O.parse(out, set(I.VOCABULARY), set(I.FUNCTIONS), set(I.CONSTANTS))
                for m in self.models:
                    if O.holds(m, {}, approx) != I.approximation_truth(fam, m, n):
                        return f"approximation {n} has the wrong truth value on a model"
                return None

            return self.cached(("approx", out), verify)

        return argv, check

    def make_check_proof(self, rng, copy):
        s = proofgen.script(rng, 150 + 50 * copy, 2 if copy % 2 else 0)
        argv = ["check-proof", "--vocab", self.vocab,
                "--proof", self.write(f"proof{copy}.txt", s.text),
                "--hypotheses", self.write(f"hypotheses{copy}.txt", s.hypotheses)]

        def check(result):
            code, out, err = result
            want = 1 if s.failing else 0
            if code != want or out.strip() != ("rejected" if s.failing else "accepted"):
                return f"exit {code}, {out.strip()!r}; expected exit {want}"
            got = sorted({int(line.split()[1].rstrip(":")) for line in err.splitlines()
                          if line.startswith("step ")})
            return None if got == sorted(s.failing) else f"failures at {got}, expected {s.failing}"

        return argv, check

    def make_equiv(self, rng, copy):
        # A non-equivalent pair, then an equivalent one cheap at size 2.
        template = rng.choice(["or_idempotent", "or_weakens", "and_or"] if copy % 2 == 0 else
                              ["or_commute", "and_reassociate", "and_commute"])
        left, right, equivalent = I.equivalence_pair(rng, template)
        argv = ["equiv", "--vocab", self.vocab, "--max-size", "2",
                "--f1", O.text(left), "--f2", O.text(right)]

        def check(result):
            code, out, err = result
            if code != (0 if equivalent else 1):
                return f"exit {code} for a pair with equivalent={equivalent}: {err.strip()[-200:]}"
            if equivalent:
                return None if out.strip() == "equivalent" else f"unexpected output {out!r}"
            lines = [ln.strip() for ln in out.splitlines() if ln.strip()]
            at = next(i for i, ln in enumerate(lines) if ln.startswith("vars"))
            m = O.read_model("\n".join(lines[1:at]))
            rows = O.read_team(lines[at:-1])
            values = [part.split(":")[1].strip() == "True" for part in lines[-1].split(",")]
            return _recheck(m, rows, left, right, *values)

        return argv, check

    def make_chain(self, rng, copy):
        i = copy % 2
        fam = rng.choice(["injection", "example3"])
        n = 3
        phi = I.family(fam, "right")
        want = " ".join("true" if I.approximation_truth(fam, self.models[i], j) else "false"
                        for j in range(1, n + 1))
        argv = ["chain", "--model", self.model_files[i], "--up-to", str(n),
                "--formula", O.text(phi)]
        return argv, _exit_check(0, want)


def _free_terms(f):
    """Variable terms of a quantifier-free formula."""
    if f[0] in ("rel",):
        return [t for t in f[2] if t[0] == "var"]
    if f[0] == "dep":
        return [t for t in f[1] if t[0] == "var"]
    if f[0] == "eq":
        return [t for t in (f[1], f[2]) if t[0] == "var"]
    if f[0] == "not":
        return _free_terms(f[1])
    return _free_terms(f[1]) + _free_terms(f[2])


def _exit_check(code_wanted, output_wanted):
    def check(result):
        code, out, err = result
        if code != code_wanted or out.strip() != output_wanted:
            return (f"exit {code}, output {out.strip()!r}; expected exit {code_wanted}, "
                    f"{output_wanted!r}: {err.strip()[-200:]}")
        return None

    return check


WORKLOADS = {w.name: w for w in (TeamSearch, ApproxChain, ProofCheck, CliBatch)}
