"""Correctness checks that rest on required properties and on the
generator's own facts, never on a recorded copy of earlier output."""

from __future__ import annotations

K = 10


def answer_problems(examples, answers, k: int = K) -> list[str]:
    """Properties every ranked answer list must have.

    ``answers`` holds ``[entities, rank, score, structure, content]`` rows.
    """
    problems = []
    arity = len(examples[0])
    example_set = {tuple(example) for example in examples}
    ranks = [row[1] for row in answers]
    if len(answers) > k or ranks != list(range(1, len(answers) + 1)):
        problems.append(f"ranks {ranks} are not 1..n with n <= {k}")
    scores = [row[2] for row in answers]
    if any(later > earlier for earlier, later in zip(scores, scores[1:])):
        problems.append(f"scores {scores} increase")
    for entities, *_scores in answers:
        if len(entities) != arity:
            problems.append(f"{entities}: arity {len(entities)} != {arity}")
        if tuple(entities) in example_set:
            problems.append(f"example tuple {entities} returned as an answer")
    return problems


def decomposition_mismatches(answers) -> int:
    """Answers whose score is not their structure plus content score.

    Every answer must have ``score == structure_score + content_score``
    within 1e-9; an operation with an answer that breaks it counts as
    failed.  Known fault: the structure score reported is the best over
    all of a tuple's answer graphs, the content score that of the graph
    that set its score, so the sum exceeds the score whenever the two
    graphs differ.
    """
    return sum(1 for row in answers if abs(row[2] - (row[3] + row[4])) > 1e-9)


def precision_at_k(answers, truth: set, k: int = K) -> float:
    """Share of the top-k slots filled by ground-truth tuples."""
    return sum(1 for row in answers[:k] if tuple(row[0]) in truth) / k


def truth_set(table_rows, examples) -> set:
    """The ground truth of a query: its table minus its example rows."""
    excluded = {tuple(example) for example in examples}
    return {tuple(row) for row in table_rows} - excluded
