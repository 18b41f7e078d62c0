import pytest

from nn2logic import cli
from nn2logic.aig import lower_netlist, simulate_aig, write_aiger
from nn2logic.netlist import Netlist


@pytest.fixture
def decision_aiger(tmp_path):
    """Two 2-bit inputs; outputs the word a + b, then the decision a > b last."""
    net = Netlist()
    a = net.add_input(2, "a")
    b = net.add_input(2, "b")
    net.set_output(net.add_gate("ADD", (a, b)))
    net.set_output(net.add_gate("GT", (a, b), name="argmax"))
    g = lower_netlist(net)
    path = tmp_path / "tiny.aag"
    write_aiger(g, path)
    return g, str(path)


def test_sat_defaults_to_the_decision_output(decision_aiger, capsys):
    g, path = decision_aiger
    assert cli.main(["sat", path]) == 0
    witness = [int(c) for c in capsys.readouterr().out.strip()]
    assert len(witness) == len(g.inputs)
    assert simulate_aig(g, witness)[-1] == 1


def test_sat_output_index_out_of_range(decision_aiger, capsys):
    g, path = decision_aiger
    assert cli.main(["sat", path, "--output-index", str(len(g.outputs))]) == 2
    assert "output index" in capsys.readouterr().err


def test_equiv_of_a_file_with_itself(decision_aiger, capsys):
    _, path = decision_aiger
    assert cli.main(["equiv", path, path]) == 0
    assert capsys.readouterr().out.strip() == "EQUIVALENT"
