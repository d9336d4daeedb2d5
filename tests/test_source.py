"""Checks over the package's source as a whole."""

import ast
from collections import Counter
from pathlib import Path

import ibvq

SRC = Path(ibvq.__file__).resolve().parent

# the module-level functions no other package code refers to, each with the
# reason it is kept
UNREFERENCED = {
    "grad_check": "the finite-difference check of the gradient tests",
    "sum_all": "a scalar loss the gradient and training-loop tests build",
    "sqnorm": "a scalar loss the gradient and training-loop tests build",
    "transpose": "perfbench's tracer wraps it by name (ROADMAP item 8c)",
    "softmax_rows": "perfbench's tracer wraps it by name (ROADMAP item 8c)",
    "unfold_rows": "perfbench's tracer wraps it by name (ROADMAP item 8c)",
}


def _names(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or as an
    attribute (``nc.attention``)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_module_level_function_is_referenced():
    """A module-level function is read somewhere in the package outside its
    own body; an import alone does not count. The functions that are not are
    exactly `UNREFERENCED`, so a function whose last caller goes is deleted
    with it or given a reason here."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))]
    used = sum((_names(tree) for tree in trees), Counter())
    unreferenced = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if used[node.name] <= _names(node)[node.name]:
                    unreferenced.add(node.name)
    assert unreferenced == set(UNREFERENCED)


# every settable value of the package: each function's or method's
# parameters with a default, and each field of a `*Config` dataclass, by
# owner; a new knob is an edit here
SETTABLE_VALUES = {
    "decoder:DecoderConfig": "channels hidden n_phones phone_dim prosody_dim seed",
    "decoder:reconstruction_graph": "quantize",
    "encoder:EncoderConfig": "acoustic_dim channels groups seed",
    "encoder:block_params": "prefix",
    "encoder:residual_block": "prefix",
    "harness.cli:_corpus_for_ckpt": "utt_ids",
    "harness.cli:main": "argv",
    "harness.experiments:ExperimentConfig":
        "capacities corpus groups holdout_fraction mine predictor_steps seeds train "
        "transfer_pairs",
    "harness.training:split_corpus": "holdout_fraction",
    "harness.training:train_autoencoder": "dec_cfg enc_cfg train_indices",
    "mi:MineConfig": "batch_size eval_every hidden seed steps",
    "numcore.gradcheck:grad_check": "eps",
    "numcore.optim:TrainConfig": "batch_size commitment_cost learning_rate seed steps",
    "numcore.optim:fit": "on_step",
    "numcore.shards:ShardWorker.close": "kill",
    "numcore.tensor:Node.__init__": "backward parents requires_grad",
    "numcore.tensor:Tensor.__init__": "_backward _parents requires_grad",
    "numcore.tensor:affine": "bias",
    "numcore.tensor:tensor": "requires_grad",
    "predictor:PredictorConfig": "G K seed word_vocab",
    "quantizer:CapacityConfig": "G K",
    "synthdata.generate:render_features": "noise_sigma",
    "synthdata.storage:read_corpus": "utt_ids",
    "synthdata.types:CorpusConfig":
        "channels duration_jitter energy_jitter max_words min_words n_utterances noise_sigma "
        "phone_vocab pitch_jitter seed slope_jitter tempo_flip_prob word_vocab zipf_exponent",
}


def _settable(node: ast.AST, module: str, prefix: str, found: dict) -> None:
    """Add the settable values under ``node`` to ``found``, by owner."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            positional = a.posonlyargs + a.args
            named = positional[len(positional) - len(a.defaults):]
            named += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if named:
                found[f"{module}:{prefix}{child.name}"] = {arg.arg for arg in named}
            _settable(child, module, f"{prefix}{child.name}.", found)
        elif isinstance(child, ast.ClassDef):
            if child.name.endswith("Config") and any(
                    ast.unparse(d).startswith("dataclass") for d in child.decorator_list):
                found[f"{module}:{prefix}{child.name}"] = {
                    s.target.id for s in child.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
            _settable(child, module, f"{prefix}{child.name}.", found)
        else:
            _settable(child, module, prefix, found)


def test_settable_values_are_the_checked_in_set():
    """No parameter default or config field appears or goes without an edit
    to `SETTABLE_VALUES`."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        _settable(ast.parse(path.read_text(), str(path)), module, "", found)
    assert found == {owner: set(names.split()) for owner, names in SETTABLE_VALUES.items()}
