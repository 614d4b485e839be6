#!/usr/bin/env python3
"""Lint: every function a src/ header declares must have a caller.

Usage:
  tools/check_uncalled.py [--root DIR]

Collects the names of the functions declared in src/**/*.h and looks for a
use of each name in the C++ sources under src, tools, bench, examples and
perfbench. A declaration or an out-of-line definition of the name is not a
use; a call, an address-of or a mention in any function body is. Uses in
tests/ do not make a caller: a name that only tests reach must be on
ALLOWLIST below with a one-line reason.

The scan works per name, not per overload or per class, so a name that one
class uses keeps every other declaration of that name alive: it errs toward
missing an uncalled function rather than flagging a called one.

Exit status: 0 when every declared name is called or allowlisted, 1 when
some are not (each is listed with its header), 2 on a usage error.
"""

import argparse
import os
import re
import sys

CALLER_DIRS = ("src", "tools", "bench", "examples", "perfbench")
TEST_DIRS = ("tests",)

# Names that only tests reach, each with the reason it stays.
ALLOWLIST = {
    # adapt, adapter, analysis
    "min_throughput_for": "MPC tests pin the rate each level needs",
    "chunks_bypassed": "adapter tests assert which chunks skip MP-DASH",
    "outstanding_engaged": "adapter tests assert pipelined deadline state",
    "wire_bytes_total": "analysis tests reconcile per-path wire bytes",
    "flame_trace_mask": "trace-tool tests filter a live run to the flame view",
    # core
    "costly_path_activations":
        "scheduler tests assert how often the metered path switches on",
    "target_bytes": "socket tests assert the deadline target a chunk sets",
    "from_traces": "optimal tests build slotted instances from traces",
    "bytes_on_interface": "optimal tests check per-interface schedule bytes",
    "greedy_waterfall": "reference schedule the optimal tests compare to",
    "prefer_cellular_policy":
        "scheduler and integration tests flip the path preference",
    # dash, energy
    "total_added": "buffer tests assert the seconds a buffer took in",
    "event_log_from_csv": "player tests round-trip the event-log CSV",
    "nominal_chunk_size": "video tests check chunk sizes against nominal",
    "galaxy_s3": "energy tests compare a second device profile",
    # exp, fault
    "clean": "campaign tests assert a run set's verdict",
    "session_spec_from_json": "spec tests parse spec text end to end",
    "faults_ended": "fault tests assert every window both opens and closes",
    "last_end": "fault tests bound generated plans by the horizon",
    "fault_plan_from_json": "triage tests parse plan text end to end",
    # http
    "download_time": "HTTP tests time a transfer",
    "outstanding": "HTTP tests assert the pipelined request count",
    "mid_message": "parser tests assert message framing state",
    "requests_served": "HTTP tests count requests the server answered",
    "requests_dropped": "HTTP tests count requests the drop fault ate",
    # link
    "extra_delay": "fault tests assert RTT spikes compose and lift",
    "queued_bytes": "link tests assert buffer occupancy",
    "dropped_bytes": "link and shaper tests assert drop accounting",
    "delivered_packets": "link tests assert delivery counts",
    "dropped_packets": "link and robustness tests assert drop counts",
    "dropped_bytes_for_flow": "fair-queue tests assert who pays for a drop",
    "set_loss_rng": "link and TCP tests script exact drop positions",
    "is_down": "fault tests assert blackouts and flaps toggle links",
    "rate_factor": "fault tests assert rate collapses compose",
    "should_drop": "fault tests measure the Gilbert-Elliott loss rate",
    "in_bad_state": "fault tests step the Gilbert-Elliott chain",
    # mptcp
    "wire_bytes": "MPTCP tests reconcile per-path wire bytes",
    "set_send_mask": "MPTCP tests pin the server to one path",
    "send_mask": "MPTCP tests assert the mask a signal applies",
    "delivered_payload_bytes": "MPTCP tests assert both paths carry data",
    "path_dead": "MPTCP tests assert subflow failure and revival",
    "wire_slice": "wire-data tests slice mixed real/virtual payload",
    "wire_to_string": "wire-data tests read payload bytes back",
    # predict, runner, sim, tcp, telemetry
    "sample_count": "predictor tests assert warm-up and reset",
    "trend_bps": "Holt-Winters tests assert the fitted trend",
    "armed": "watchdog tests assert arming and disarming",
    "has_pending": "event-loop tests assert cancelled events drain",
    "inflight_packets": "TCP tests assert the congestion window in flight",
    "bytes_acked": "TCP tests assert cumulative ACK accounting",
    "consecutive_timeouts": "TCP tests assert RTO backoff under blackout",
    "overwritten": "ring-sink tests assert the eviction count",
    "total_seen": "ring-sink tests assert every record was offered",
    # trace, util
    "rate_at": "trace tests read rates at instants",
    "mean_rate": "trace tests check generated traces' averages",
    "gen_step": "trace tests build step-change inputs",
    "gen_ramp": "trace and online-simulator tests build ramp inputs",
    "trace_to_csv": "trace tests round-trip CSV through the loader",
    "lognormal_mean_sd": "RNG tests check the lognormal moments",
    "split": "RNG tests assert split streams differ",
    "harmonic_mean": "stats tests check the harmonic mean",
    "as_kbps": "unit tests check rate conversions",
    "bytes_in": "unit and adaptation tests size chunks from rates",
}

KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "case", "char", "const",
    "constexpr", "decltype", "default", "delete", "do", "double", "else",
    "explicit", "extern", "float", "for", "friend", "if", "inline", "int",
    "long", "mutable", "new", "noexcept", "operator", "return", "short",
    "signed", "sizeof", "static", "static_assert", "static_cast", "switch",
    "template", "throw", "typename", "unsigned", "virtual", "void",
    "volatile", "while",
}

TOKEN = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<string>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
    | (?P<pp>^[ \t]*\#[^\n]*(?:\\\n[^\n]*)*)
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<punct>::|->|&&|[{}()\[\];:<>=*&~,])
    | (?P<other>\S)
    """,
    re.VERBOSE | re.DOTALL | re.MULTILINE,
)


def tokens(text):
    """(kind, value, offset) for every identifier and punctuator."""
    for m in TOKEN.finditer(text):
        kind = m.lastgroup
        if kind in ("comment", "string", "pp"):
            continue
        yield kind, m.group(), m.start()


def strip_template_prefix(stmt):
    """Drops a leading `template <...>` so its `=` defaults are not seen."""
    if len(stmt) < 2 or stmt[0][1] != "template" or stmt[1][1] != "<":
        return stmt
    depth = 0
    for i, (_, value, _) in enumerate(stmt[1:], start=1):
        if value == "<":
            depth += 1
        elif value == ">":
            depth -= 1
            if depth == 0:
                return stmt[i + 1:]
    return stmt


def declarator(stmt, enclosing):
    """Index in `stmt` of the name a function declaration declares, or None.

    `stmt` is the token run of one statement at namespace or class scope,
    up to its first `(`; `enclosing` holds the names of the classes around
    it (their constructors are not functions to check).
    """
    if len(stmt) < 2 or stmt[-1][1] != "(":
        return None
    values = [v for _, v, _ in strip_template_prefix(stmt)]
    if values[0] in ("using", "typedef") or "=" in values:
        return None
    kind, name, _ = stmt[-2]
    if kind != "ident" or name in KEYWORDS or name in enclosing:
        return None
    if len(stmt) >= 3 and stmt[-3][1] in ("operator", "~"):
        return None
    return len(stmt) - 2


def scan(text):
    """Splits one file's tokens into declarators and uses.

    Returns (decls, uses): decls maps each name declared or defined at
    namespace or class scope to the line of its first declaration; uses
    counts every other mention of every identifier.
    """
    decls, uses = {}, {}
    scopes = []  # "ns", "class" or "body", one per open brace
    classes = []  # names of the enclosing classes, for constructors
    stmt, stmt_open = [], True  # current statement, before its first "("

    def at_decl_scope():
        return not scopes or scopes[-1] in ("ns", "class")

    def use(name):
        uses[name] = uses.get(name, 0) + 1

    for tok in tokens(text):
        kind, value, _ = tok
        if not at_decl_scope():
            if value == "{":
                scopes.append("body")
            elif value == "}":
                scopes.pop()
                if at_decl_scope():
                    stmt, stmt_open = [], True
            elif kind == "ident":
                use(value)
            continue
        if value in (";", "}") or (
                value == ":" and len(stmt) == 1 and
                stmt[0][1] in ("public", "private", "protected")):
            if value == "}":
                if scopes and scopes.pop() == "class":
                    classes.pop()
            stmt, stmt_open = [], True
            continue
        if value == "{":
            words = [v for _, v, _ in stmt]
            if "namespace" in words:
                scopes.append("ns")
            elif stmt_open and any(w in ("class", "struct", "union")
                                   for w in words) and "=" not in words:
                scopes.append("class")
                head = words[:words.index(":")] if ":" in words else words
                names = [w for w in head if w.isidentifier() and w not in
                         ("class", "struct", "union", "final")]
                classes.append(names[-1] if names else "")
            else:  # function bodies, initializers, enums
                scopes.append("body")
            stmt, stmt_open = [], True
            continue
        if stmt_open:
            stmt.append(tok)
            if value == "(":
                stmt_open = False
                at = declarator(stmt, classes)
                for i, (k, v, offset) in enumerate(stmt):
                    if i == at:
                        if v not in decls:
                            decls[v] = text.count("\n", 0, offset) + 1
                    elif k == "ident":
                        use(v)
            continue
        if kind == "ident":
            use(value)
    return decls, uses


def sources(root, dirs, suffixes):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(root, d)):
            for f in sorted(files):
                if f.endswith(suffixes):
                    yield os.path.join(base, f)


def read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def main(argv):
    parser = argparse.ArgumentParser(
        description="Fail on functions declared in src/ headers that "
                    "nothing calls.")
    parser.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir),
        help="repository root (default: the parent of tools/)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        parser.error(f"{root} has no src/ directory")

    declared = {}  # name -> "header:line" of its first declaration
    for path in sources(root, ("src",), (".h",)):
        decls, _ = scan(read(path))
        for name, line in decls.items():
            declared.setdefault(
                name, f"{os.path.relpath(path, root)}:{line}")

    def count_uses(dirs):
        total = {}
        for path in sources(root, dirs, (".h", ".cpp")):
            _, uses = scan(read(path))
            for name, n in uses.items():
                total[name] = total.get(name, 0) + n
        return total

    called = count_uses(CALLER_DIRS)
    tested = count_uses(TEST_DIRS)

    failures = []
    for name in sorted(declared, key=lambda n: declared[n]):
        if called.get(name) or name in ALLOWLIST:
            continue
        where = "only tests call it" if tested.get(name) else "no caller"
        failures.append(f"{declared[name]}: {name}: {where}")
    for name in sorted(ALLOWLIST):
        if name in called or not tested.get(name) or name not in declared:
            failures.append(f"ALLOWLIST: {name}: not a declared name that"
                            " only tests call; drop the entry")

    for f in failures:
        print(f)
    if failures:
        print(f"check_uncalled: {len(failures)} problem(s) in "
              f"{len(declared)} declared names")
        return 1
    print(f"check_uncalled: all {len(declared)} declared names are called"
          f" or allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
