from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def test_tier1_workflow_parses_and_every_step_runs_something():
    # a workflow file that does not parse runs none of its steps
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    steps = [step for job in jobs.values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step.get("run") or step.get("uses"), str), step
